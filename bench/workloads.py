"""The three benchmark workloads and the inputs they are built from.

Each workload is one fixed `evomtl run` command line, repeated within a
run on new data each time: the repetition's seed picks the synthetic
corpus (`--synth-seed`) or the PGM tree written here. The search's own
`--seed` is part of the workload, as `--seed 7` is part of the README
quick-start: with it fixed, the work a repetition does depends on the data
only through selection, so run-to-run spread is mostly the host's. See
README.md in this directory for why each workload exists and what it
should move.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Shape of the PGM corpus for cm-pgm28: tasks x classes x images at the
# paper's 28x28 side.
PGM_TASKS, PGM_CLASSES, PGM_IMAGES, PGM_SIDE = 3, 3, 30, 28


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                 # meta_iteration | job | generation
    tail_pct: float           # percentile reported as unit_s.tail
    first_unit: tuple         # (module, function) that starts the first unit
    history_key: str          # history.jsonl field that must never decrease
    task_ids: tuple
    args: tuple               # `evomtl run` arguments besides data and out
    synth: str | None = None  # TxCxS for a synthetic corpus
    pgm: bool = False         # write a PGM tree and pass --data-dir
    loopback: bool = False    # distribute jobs to one loopback worker
    config: tuple = ()        # (key, value) pairs for a --config file

    def argv(self, seed: int, out_dir: str, data_dir: str | None,
             addr: str | None, config_path: str | None) -> list[str]:
        argv = ["run", *self.args, "--out", out_dir]
        if self.config:
            argv += ["--config", config_path]
        if self.synth:
            argv += ["--synth", self.synth, "--synth-seed", str(seed)]
        if self.pgm:
            argv += ["--data-dir", data_dir, "--image-side", str(PGM_SIDE)]
        if self.loopback:
            argv += ["--serve", addr]
        return argv


_CM_SMALL = ("--profile", "desk", "--stagnation", "1000", "--n-top", "1")
# One global-hyperparameter candidate (the desk base: k=2, depth=2, 8
# filters) instead of four random ones. The evolved pool varies job cost
# up to 5x with depth and follows near-chance fitness, so at these sizes it
# made each seed's cost a different draw.
_CM_CONFIG = (("hyper_pool", 1),)

WORKLOADS = {w.name: w for w in [
    # README quick-start flags; meta-iterations cut to fit the run length
    Workload(
        "ctr-quickstart", "meta_iteration", 50,
        ("routing", "mutate_challenger"),
        "best_avg_val", tuple(f"synth{t}" for t in range(5)),
        ("--algorithm", "ctr", "--seed", "7", "--meta-iters", "4",
         "--m-iters", "50", "--k-modules", "4", "--filters", "16",
         "--lr", "0.01"),
        synth="5x4x8"),
    # desk-profile cm on 28x28 PGM images, in-process local evaluator
    Workload(
        "cm-pgm28", "job", 75, ("harness", "evaluate_local"), "best_so_far",
        tuple(f"task{t}" for t in range(PGM_TASKS)),
        ("--algorithm", "cm", "--seed", "11", *_CM_SMALL,
         "--networks-per-gen", "6", "--train-iters", "12",
         "--generations", "2", "--long-iters", "5"),
        pgm=True, config=_CM_CONFIG),
    # desk-profile cm on the synthetic 12x12 corpus over loopback TCP
    Workload(
        "cm-loopback", "generation", 50, ("coevolve", "plan_generation"),
        "best_so_far", tuple(f"synth{t}" for t in range(3)),
        ("--algorithm", "cm", "--seed", "11", *_CM_SMALL,
         "--networks-per-gen", "6", "--train-iters", "8",
         "--generations", "3", "--long-iters", "10"),
        # One worker, on the one CPU the run is pinned to. Six networks
        # per generation: with four, the third generation's mutations put
        # a dense layer before a conv for some data seeds, which the
        # program cannot assemble and scores 0 as a failed job.
        synth="3x3x12", loopback=True, config=_CM_CONFIG),
]}


def write_pgm_tree(root: str, seed: int) -> None:
    """root/task<t>/class<c>/<i>.pgm: per task, sparse random binary
    prototypes (density 0.25); each image flips pixels with p = 0.1 and is
    shifted by up to one pixel, so classes overlap a little."""
    rng = np.random.default_rng(seed)
    side = PGM_SIDE
    for t in range(PGM_TASKS):
        protos = rng.random((PGM_CLASSES, side, side)) < 0.25
        for c in range(PGM_CLASSES):
            cdir = os.path.join(root, f"task{t}", f"class{c}")
            os.makedirs(cdir, exist_ok=True)
            for i in range(PGM_IMAGES):
                shift = rng.integers(-1, 2, size=2)
                img = np.roll(protos[c], tuple(shift), axis=(0, 1))
                img = np.logical_xor(img, rng.random((side, side)) < 0.1)
                raster = np.where(img, 255, 0).astype(np.uint8).tobytes()
                with open(os.path.join(cdir, f"{i:03d}.pgm"), "wb") as f:
                    f.write(b"P5\n%d %d\n255\n" % (side, side) + raster)
