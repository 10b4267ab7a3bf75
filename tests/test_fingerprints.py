"""Committed fingerprints of tiny seeded runs of all six algorithms, and
of a ctr run at the quick-start scale whose challengers also add inputs
to existing merges (the tiny ctr run only creates merges).

Each run's history records and per-task accuracies must equal the values
in `fingerprints.json` exactly. So must, for the cm, cmsr and cmtr
searches, every genome's fitness after each generation's attribution and
the size of every species it was evaluated in: three generations of
these, taken by wrapping `coevolve.attribute_fitness`, show a change in
how the search attributes fitness or reproduces that the history alone
does not. Where a run writes weights (the ctr checkpoint), every Param
value array must match within a relative tolerance of 1e-8 of the
array's largest magnitude: a change that only reorders float operations
moves weights by rounding (about 1e-10) without changing a discrete
outcome, and that is allowed; anything else is not.

A change that moves a fingerprint regenerates the file with

    PYTHONPATH=src python tests/test_fingerprints.py --write

and names the fingerprint that moved, and why, in CHANGES.md. The CI
seeded-run digest step runs the same commands (`commands` in the file).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest

from evomtl import coevolve
from evomtl.cli import main
from evomtl.serialize import array_from_obj

FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "fingerprints.json")
WEIGHT_RTOL = 1e-8

# `evomtl run` arguments, without --out
COMMANDS = {
    "ctr": "--algorithm ctr --synth 2x3x8 --seed 7 --meta-iters 2 "
           "--m-iters 10 --k-modules 2 --filters 8",
    "cm": "--algorithm cm --synth 2x3x8 --seed 11 --profile desk "
          "--stagnation 1000 --n-top 1 --networks-per-gen 4 --train-iters 4 "
          "--generations 3 --long-iters 4",
    "baseline-soft": "--algorithm baseline-soft --synth 2x3x8 --seed 3 "
                     "--train-iters 20",
    "baseline-single": "--algorithm baseline-single --synth 2x3x8 --seed 3 "
                       "--train-iters 20",
    "cmsr": "--algorithm cmsr --synth 2x3x12 --seed 5 --profile desk "
            "--stagnation 1000 --n-top 1 --networks-per-gen 4 "
            "--train-iters 4 --generations 3 --long-iters 4",
    "cmtr": "--algorithm cmtr --synth 2x3x8 --seed 11 --profile desk "
            "--stagnation 1000 --n-top 1 --networks-per-gen 2 "
            "--train-iters 4 --generations 3 --meta-iters 1 --m-iters 4 "
            "--retrain-meta-iters 1",
    # mutate_challenger extends an existing merge's scales in this run
    "ctr-quickstart": "--algorithm ctr --synth 5x4x8 --synth-seed 1001 "
                      "--seed 1 --meta-iters 4 --m-iters 50 --k-modules 4 "
                      "--filters 16 --lr 0.01",
}


def _weights(obj, path=""):
    """Every Param value array in a checkpoint object, keyed by its path."""
    out = {}
    if isinstance(obj, dict):
        if isinstance(obj.get("value"), dict) and "b64" in obj["value"]:
            return {path: array_from_obj(obj["value"]).ravel().tolist()}
        for k, v in obj.items():
            out.update(_weights(v, f"{path}/{k}"))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_weights(v, f"{path}/{i}"))
    return out


def _recording_attribution(generations: list):
    """`coevolve.attribute_fitness`, appending to `generations`, per
    population kind, each species' id, size and members' (id, fitness)."""
    attribute_fitness = coevolve.attribute_fitness

    def attribute(jobs, results, module_pop, blueprint_pop=None,
                  hyper_pop=None):
        attribute_fitness(jobs, results, module_pop, blueprint_pop, hyper_pop)
        generations.append({
            pop.kind: [{"species_id": sp.species_id,
                        "size": len(sp.members),
                        "fitness": [[g.genome_id, g.fitness]
                                    for g in sp.members]}
                       for sp in pop.species]
            for pop in (module_pop, blueprint_pop) if pop is not None})
    return attribute


def fingerprint(name: str, out_dir: str) -> dict:
    generations = []
    with contextlib.redirect_stdout(io.StringIO()), mock.patch.object(
            coevolve, "attribute_fitness",
            _recording_attribution(generations)):
        code = main(["run", *COMMANDS[name].split(), "--out", out_dir])
    assert code == 0, name
    with open(os.path.join(out_dir, "history.jsonl")) as f:
        history = [json.loads(line) for line in f]
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    fp = {"history": history,
          "val_per_task": report["val_per_task"],
          "test_per_task": report["test_per_task"]}
    if generations:
        fp["search"] = generations
    ckpt = os.path.join(out_dir, "ctr_checkpoint.json")
    if os.path.exists(ckpt):
        with open(ckpt) as f:
            fp["weights"] = _weights(json.load(f))
    return fp


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_seeded_run_matches_its_fingerprint(name, tmp_path):
    with open(FILE) as f:
        committed = json.load(f)
    assert committed["commands"] == COMMANDS
    expected = committed["runs"][name]
    actual = fingerprint(name, str(tmp_path / name))
    for key in ("history", "val_per_task", "test_per_task", "search"):
        assert actual.get(key) == expected.get(key), key
    assert actual.keys() == expected.keys()
    for path, values in expected.get("weights", {}).items():
        want = np.array(values)
        got = np.array(actual["weights"][path])
        assert got.shape == want.shape, path
        scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
        assert float(np.abs(got - want).max()) <= WEIGHT_RTOL * scale, path
    assert actual.get("weights", {}).keys() == expected.get("weights",
                                                            {}).keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprints.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: fingerprint(name, os.path.join(tmp, name))
                for name in sorted(COMMANDS)}
    with open(FILE, "w") as f:
        json.dump({"commands": COMMANDS, "runs": runs}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
