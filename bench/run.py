#!/usr/bin/env python3
"""evomtl benchmark: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload ctr-quickstart --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. A run:

  1. with --trace 0, starts the workload SETUP_PROBES times in fresh
     processes and stops each at its first timed unit (setup_s);
  2. repeats the workload's `evomtl run` in-process until --seconds have
     passed and enough units are done for the workload's tail
     percentile to have 10 beyond it, with only
     unit-boundary markers and host-speed probes on. The k-th
     repetition's data (the synthetic corpus, or a PGM tree written here)
     comes from seed 1000 * --seed + k, so a run averages over several
     inputs. With --trace 1 the second repetition is made twice on the
     same seed, untraced and then fully traced; the per-layer metrics come
     from the traced one, so their counts repeat exactly for a given
     --seed, and tracing overhead is its host-normalised wall time minus
     the untraced one's;
  3. checks the outputs (report.json, history.jsonl, every loopback job
     evaluated exactly once, loopback results against in-process replays,
     identical report and history with and without tracing);
  4. prints every metric with its unit, writes the full record to
     .bench_out/<workload>-s<seed>/result.json, and prints as its last line
     one JSON object with `correct`, `attempted`, `failed` and the
     end-to-end (--trace 0) or per-layer (--trace 1) metrics named in
     BENCHMARK.json.

Exit status: 0 when every check passed, 1 when a check failed (the JSON
line is still printed), 2 when the run could not be made at all.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; passed on to every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_pgm_tree  # noqa: E402

SETUP_PROBES = 9
REPLAY_SAMPLES = 2
CHILD_TIMEOUT_S = 120
# the timed section stops here even if MIN_UNITS are not done
TIMED_CAP_S = 120.0
LAYERS = ("cli", "diffcore", "routing", "training", "assembly", "genome",
          "coevolve", "harness", "dataset", "serialize")
TAPE_OPS = ("conv2d", "maxpool2x2", "dense", "softmerge", "activation",
            "cross_entropy")
# spans reported as <name>.calls and <name>.s (tape ops as fwd_s / vjp_s)
TIMED_SPANS = tuple(f"diffcore.{op}" for op in TAPE_OPS) + (
    "diffcore.backward", "diffcore.adam_step",
    "routing.mutate_challenger", "routing.joint_train",
    "routing.evaluate_individual", "routing.serialize_ctr_state",
    "routing.restore_ctr_state",
    "training.train_network", "training.evaluate_accuracy",
    "assembly.build_network", "assembly.realize_module",
    "genome.speciate_and_reproduce",
    "coevolve.plan_generation", "coevolve.attribute_fitness",
    "coevolve.retrain_top",
    "harness.evaluate_payload", "harness.build_dataset",
    "harness.serve_coordinator",
    "dataset.load_image_dir", "dataset.synth_generate", "dataset.split_fixed",
    "dataset.sample_iteration",
    "serialize.canon_dumps", "serialize.atomic_write_text")


class BenchError(Exception):
    """The run could not be made (as opposed to a failed output check)."""


def load_evomtl():
    """Import evomtl from the checkout's src/ and nowhere else."""
    if not (SRC / "evomtl" / "__init__.py").is_file():
        raise BenchError(f"no evomtl source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import evomtl.cli  # noqa: F401  (loads every evomtl module)
    evomtl = sys.modules["evomtl"]
    if Path(evomtl.__file__).resolve().parent != SRC / "evomtl":
        raise BenchError(f"evomtl imported from {evomtl.__file__}, not {SRC}")
    return evomtl


def config_path(out: Path) -> str:
    return str(out / "workload-config.json")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# --- set-up probes -----------------------------------------------------------


class SetupDone(Exception):
    pass


def probe_setup(wl, seed: int, out_dir: str, data_dir: str | None) -> int:
    """Child side: run the workload until its first unit starts, print the
    monotonic clock at that moment and stop."""
    evomtl = load_evomtl()
    tr = tracing.Tracer()
    module, fn = wl.first_unit

    def stop(*args, **kwargs):
        print(json.dumps({"first_unit_at": time.perf_counter()}),
              file=sys.__stdout__, flush=True)
        raise SetupDone

    tr.patch(getattr(evomtl, module), fn, stop)
    argv = wl.argv(seed, out_dir, data_dir, "127.0.0.1:1",
                   config_path(Path(out_dir).parent))
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        try:
            evomtl.cli.main(argv)
        except SetupDone:
            return 0
    raise BenchError("workload finished without starting a unit")


def measure_setup(wl, seed: int, out: Path, data_dir) -> tuple[list, list]:
    """Process start to first unit, in SETUP_PROBES fresh processes, with a
    host-speed probe before and after each; returns (times, probes)."""
    times, probes = [], [hostspeed.probe()]
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl.name, "--seed", str(seed),
               "--probe-setup", str(out / f"probe{i}")]
        if data_dir:
            cmd += ["--data", data_dir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        line = proc.stdout.strip().splitlines()[-1]
        times.append(json.loads(line)["first_unit_at"] - t0)
        probes.append(hostspeed.probe())
    return times, probes


# --- loopback workers --------------------------------------------------------


class LoopbackWorker:
    """One loopback worker process, restarted whenever it exits, the way the
    README keeps workers alive across generations. Started on the first
    coordinator batch; stopped when the repetition ends."""

    def __init__(self, addr: str, traced: bool, dump_dir: Path):
        self.addr, self.traced, self.dump_dir = addr, traced, dump_dir
        self.lock = threading.Lock()
        self.stopped = False
        self.proc: subprocess.Popen | None = None
        self.thread: threading.Thread | None = None

    def start(self) -> None:
        with self.lock:
            if self.thread or self.stopped:
                return
            self.thread = threading.Thread(target=self._keep_alive,
                                           daemon=True)
        self.thread.start()

    def _keep_alive(self) -> None:
        spawned = 0
        while True:
            with self.lock:
                if self.stopped:
                    return
                proc = self.proc = subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "worker.py"),
                     "--addr", self.addr, "--trace", str(int(self.traced)),
                     "--dump", str(self.dump_dir / f"worker{spawned}.json")],
                    env=child_env(), stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                spawned += 1
            proc.wait()

    def stop(self) -> None:
        with self.lock:
            self.stopped = True
            proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.thread is not None:
            self.thread.join(timeout=30)

    def dumps(self) -> list[dict]:
        out = []
        for path in sorted(self.dump_dir.glob("worker*.json")):
            with open(path) as f:
                out.append(json.load(f))
        return out


# --- one repetition ----------------------------------------------------------


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_rep(evomtl, wl, seed: int, out: Path, data_dir, index: int,
            traced: bool) -> dict:
    rep_dir = out / f"rep{index}{'-traced' if traced else ''}"
    rep_dir.mkdir(parents=True)
    worker = None
    addr = None
    if wl.loopback:
        addr = f"127.0.0.1:{free_port()}"
        dump_dir = rep_dir / "workers"
        dump_dir.mkdir()
        worker = LoopbackWorker(addr, traced, dump_dir)
    tr = tracing.Tracer(full=traced,
                        on_serve=lambda _: worker.start() if worker else None)
    argv = wl.argv(seed, str(rep_dir / "run"), data_dir, addr,
                   config_path(out))
    error = None
    cpu0 = cpu_seconds()
    tracing.install(tr, evomtl)
    # traced repetitions too, so tracing overhead can be host-normalised
    tr.samples["host.probes"].append(hostspeed.probe())
    t0 = time.perf_counter()
    try:
        with open(rep_dir / "stdout.log", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = evomtl.cli.main(argv)
        if code != 0:
            error = f"evomtl run exited {code}; see {rep_dir / 'stdout.log'}"
    except Exception as e:  # a crashed repetition is a failed check
        error = f"evomtl run raised {type(e).__name__}: {e}"
    finally:
        t1 = time.perf_counter()
        tr.samples["host.probes"].append(hostspeed.probe())
        tr.unpatch()
        if worker:
            worker.stop()
    cpu = cpu_seconds() - cpu0
    workers = worker.dumps() if worker else []
    probes = tr.samples["host.probes"] + [
        tuple(p) for w in workers for p in w["samples"].get("host.probes", [])]
    return {"traced": traced, "t0": t0, "t1": t1, "wall_s": t1 - t0,
            "cpu_s": cpu, "error": error, "run_dir": rep_dir / "run",
            "tracer": tr, "workers": workers, "probes": probes}


# --- per-repetition results ----------------------------------------------------


def unit_bounds(wl, spans) -> list[tuple[float, float]]:
    """(start, end) of every unit the spans show."""
    if wl.unit == "job":
        return [(s, e) for name, s, e, _, _ in spans
                if name == "harness.evaluate_local"]
    if wl.unit == "meta_iteration":
        out, start = [], None
        for name, s, e, _, _ in spans:
            if name == "routing.mutate_challenger" and start is None:
                start = s
            elif name == "routing.select_and_checkpoint" and start is not None:
                out.append((start, e))
                start = None
        return out
    starts = [s for name, s, _, _, _ in spans
              if name == "coevolve.plan_generation"]
    ends = [e for name, _, e, _, _ in spans
            if name == "coevolve.run_generation_loop"]
    bounds = starts + ends[:1]
    return list(zip(bounds, bounds[1:]))


def train_time(spans, duration) -> float:
    """Time inside the training entry points, less the validation
    snapshots train_network takes; `duration(start, end)` times a span."""
    train = {"routing.joint_train", "training.train_network"}
    total = sum(duration(s, e) for name, s, e, _, _ in spans if name in train)
    total -= sum(duration(s, e) for name, s, e, parent, _ in spans
                 if name == "training.evaluate_accuracy" and parent >= 0
                 and spans[parent][0] in train)
    return total


def read_quality(run_dir: Path) -> dict:
    with open(run_dir / "report.json") as f:
        report = json.load(f)
    with open(run_dir / "history.jsonl") as f:
        history = [json.loads(line) for line in f if line.strip()]
    return {"report": {k: report.get(k) for k in (
                "val_per_task", "test_per_task", "val_accuracy",
                "test_accuracy", "best_avg_val")},
            "history": history}


def check_rep(wl, rep: dict, failures: list[str]) -> None:
    tag = f"rep {rep['index']}{' (traced)' if rep['traced'] else ''}"
    if rep["error"]:
        failures.append(f"{tag}: {rep['error']}")
        return
    try:
        q = read_quality(rep["run_dir"])
    except (OSError, ValueError) as e:
        failures.append(f"{tag}: unreadable run output: {e}")
        return
    rep["quality"] = q
    report = q["report"]
    for split in ("val_per_task", "test_per_task"):
        per_task = report.get(split) or {}
        if set(per_task) != set(wl.task_ids):
            failures.append(f"{tag}: report.json {split} covers "
                            f"{sorted(per_task)}, want {list(wl.task_ids)}")
        elif not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0
                     for v in per_task.values()):
            failures.append(f"{tag}: report.json {split} out of [0, 1]")
    best = [r.get(wl.history_key) for r in q["history"]]
    if not best or any(b is None for b in best):
        failures.append(f"{tag}: history.jsonl lacks {wl.history_key}")
    elif any(b < a for a, b in zip(best, best[1:])):
        failures.append(f"{tag}: history {wl.history_key} decreases: {best}")
    if wl.loopback:
        check_loopback(rep, tag, failures)


def check_loopback(rep: dict, tag: str, failures: list[str]) -> None:
    """The workers evaluated every dispatched job exactly once (they are
    only stopped between batches, so nothing needs re-dispatching), and,
    when traced, the coordinator received exactly one result frame per
    job."""
    tr = rep["tracer"]
    jobs = sorted(j for b in tr.samples["serve.batches"] for j in b["job_ids"])
    evaluated = sorted(sp[4] for w in rep["workers"] for sp in w["spans"]
                       if sp[0] == "harness.evaluate_local")
    if evaluated != jobs:
        failures.append(f"{tag}: workers evaluated jobs {evaluated}, "
                        f"coordinator dispatched {jobs}")
    received = sorted(tr.samples["harness.results_received"])
    if rep["traced"] and received != jobs:
        failures.append(f"{tag}: coordinator received results {received} "
                        f"for jobs {jobs}")


def replay_check(evomtl, rep: dict, seed: int, failures: list[str]) -> int:
    """Re-evaluate a seeded sample of loopback jobs in-process; payloads are
    self-seeded, so fitness and per-task accuracy must match exactly."""
    import numpy as np
    # serve_coordinator returns results in job order
    pairs = [triple for b in rep["tracer"].samples["serve.batches"]
             for triple in zip(b["job_ids"], b["payloads"], b["results"])]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pairs), size=min(REPLAY_SAMPLES, len(pairs)),
                       replace=False)
    for i in sorted(int(i) for i in picks):
        jid, payload, remote = pairs[i]
        local = evomtl.harness.evaluate_local(evomtl.harness.Job(jid, payload))
        if (local.status, local.fitness, local.per_task) != (
                remote["status"], remote["fitness"], remote["per_task"]):
            failures.append(
                f"job {jid}: loopback result {remote['fitness']!r} "
                f"{remote['per_task']} != replay {local.fitness!r} "
                f"{local.per_task}")
    return len(picks)


# --- metrics -------------------------------------------------------------------


def end_to_end(wl, setup, reps: list[dict]) -> tuple[dict, dict]:
    """Metrics from the untraced repetitions; returns (metrics, notes).

    Timings are host-speed normalised (stats.normalised against
    hostspeed.REF_ROUND_S); `raw.*` are the same timings in plain seconds,
    less the probes' own time."""
    ref = hostspeed.REF_ROUND_S
    units, raw_units, walls, raw_walls = [], [], [], []
    passes = train_s = raw_train_s = 0.0
    rss_workers = [0]
    for rep in reps:
        probes = rep["probes"]

        def norm(a, b, probes=probes):
            return stats.normalised(a, b, probes, ref)

        def free(a, b, probes=probes):
            return stats.probe_free(a, b, probes)

        spans = rep["tracer"].export()
        bounds = unit_bounds(wl, spans)
        units += [norm(a, b) for a, b in bounds]
        raw_units += [free(a, b) for a, b in bounds]
        walls.append(norm(rep["t0"], rep["t1"]))
        raw_walls.append(free(rep["t0"], rep["t1"]))
        passes += rep["tracer"].counts["train.passes"]
        for sp in [spans] + [w["spans"] for w in rep["workers"]]:
            train_s += train_time(sp, norm)
            raw_train_s += train_time(sp, free)
        for w in rep["workers"]:
            passes += w["counts"].get("train.passes", 0.0)
            rss_workers.append(w["rss_kb"])
    if not units:
        raise BenchError("no unit completed")
    try:
        tail = stats.tail(units, wl.tail_pct)
        raw_tail = stats.tail(raw_units, wl.tail_pct)
    except ValueError as e:  # the run hit TIMED_CAP_S first
        raise BenchError(f"unit_s.tail: {e}") from None
    first = reps[0]["quality"]["report"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + max(rss_workers)
    rounds = [r for rep in reps for _, _, r in rep["probes"]]
    m = {
        "wall_s": (statistics.median(walls), "s"),
        "unit_s.p50": (statistics.median(units), "s"),
        "unit_s.tail": (tail, "s"),
        "train_examples_per_s": (passes / train_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "raw.wall_s": (statistics.median(raw_walls), "s"),
        "raw.unit_s.p50": (statistics.median(raw_units), "s"),
        "raw.unit_s.tail": (raw_tail, "s"),
        "raw.train_examples_per_s": (passes / raw_train_s, "1/s"),
        "host.round_ms": (statistics.median(rounds) * 1e3, "ms"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "val_accuracy": (first["val_accuracy"], "fraction"),
        "test_accuracy": (first["test_accuracy"], "fraction"),
        "best_avg_val": (first.get("best_avg_val") or 0.0, "fraction"),
    }
    notes = {"unit": wl.unit, "unit_samples": len(units),
             "unit_s.tail": f"p{wl.tail_pct:g}",
             "repetitions": len(reps),
             "wall_samples": walls, "raw_wall_samples": raw_walls,
             "cpu_samples": [r["cpu_s"] for r in reps]}
    if setup:
        times, probes = setup
        # each process between the probes taken just before and after it
        exp = hostspeed.SETUP_EXPONENT
        norm_setup = [t * (ref / ((p[2] + q[2]) / 2)) ** exp
                      for t, p, q in zip(times, probes, probes[1:])]
        m["setup_s"] = (statistics.median(norm_setup), "s")
        m["raw.setup_s"] = (statistics.median(times), "s")
        notes["setup_samples"] = norm_setup
        notes["raw_setup_samples"] = times
        notes["setup_probe_round_s"] = [r for _, _, r in probes]
    return m, notes


def per_layer(rep: dict, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced repetition (coordinator and worker
    processes together); also returns the self-time table."""
    calls, total = {}, {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    counts, samples = {}, {}
    sources = [(rep["tracer"].export(), rep["tracer"].counts,
                rep["tracer"].samples)]
    sources += [(w["spans"], w["counts"], w["samples"])
                for w in rep["workers"]]
    for spans, cnt, smp in sources:
        for (name, s, e, _, _), own in zip(spans, stats.self_times(
                [sp[:4] for sp in spans])):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (e - s)
            self_by_layer[name.split(".", 1)[0]] += own
        for k, v in cnt.items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in smp.items():
            samples.setdefault(k, []).extend(v)

    def ratio(num, den):
        num, den = counts.get(num, 0.0), counts.get(den, 0.0)
        return num / den if den else 0.0

    def mean(key):
        xs = samples.get(key, [])
        return statistics.fmean(xs) if xs else 0.0

    m = {}
    for name in TIMED_SPANS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
    for op in TAPE_OPS:
        m[f"diffcore.{op}.fwd_s"] = m.pop(f"diffcore.{op}.s")
        m[f"diffcore.{op}.vjp_s"] = (total.get(f"diffcore.{op}.vjp", 0.0), "s")
    for key, unit in (("diffcore.conv2d.flops", "flop"),
                      ("diffcore.conv2d.im2col_bytes", "B"),
                      ("diffcore.tape_nodes", "count"),
                      ("coevolve.jobs", "count"),
                      ("serialize.canon_dumps.bytes", "B")):
        m[key] = (counts.get(key, 0.0), unit)
    m["diffcore.unused_tape_frac"] = (
        ratio("diffcore.eval_tape_nodes", "diffcore.tape_nodes"), "fraction")
    m["routing.mutation_failed_frac"] = (
        ratio("routing.mutations_failed", "routing.mutations"), "fraction")
    m["routing.replaced_frac"] = (
        ratio("routing.replaced", "routing.challengers"), "fraction")
    m["routing.checkpoint_bytes"] = (mean("routing.checkpoint_bytes"), "B")
    m["routing.graph_nodes.mean"] = (mean("routing.graph_nodes"), "count")
    m["genome.species_count"] = (mean("genome.species_count"), "count")
    pc = samples.get("assembly.param_count", [])
    m["assembly.param_count.p50"] = (statistics.median(pc) if pc else 0,
                                     "count")
    m.update(harness_metrics(rep))

    m["proc.cpu_s"] = (rep["cpu_s"], "s")
    for layer, own in self_by_layer.items():
        m[f"self_s.{layer}"] = (own, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    table = sorted(self_by_layer.items(), key=lambda kv: -kv[1])
    return m, table


def harness_metrics(rep: dict) -> dict:
    """Coordinator-side accounting of the loopback batches."""
    tr = rep["tracer"]
    n_workers = 1  # cm-loopback runs one worker
    serves, connect = [], []
    spans = [sp for sp in tr.export() if sp[0] == "harness.serve_coordinator"]
    hellos = sorted(tr.samples["harness.hello_at"])
    for (_, start, end, _, _), batch in zip(spans,
                                            tr.samples["serve.batches"]):
        serves.append((end - start,
                       [r["wall_time_s"] for r in batch["results"]]))
        after = [h for h in hellos if h >= start]
        if after:
            connect.append(after[0] - start)
    overheads = [stats.dispatch_overhead_s(s, w, n_workers) for s, w in serves]
    dispatched = tr.samples["harness.dispatched"]
    redispatched = len(dispatched) - len(set(dispatched))
    return {
        "harness.worker_connect_s": (
            statistics.median(connect) if connect else 0.0, "s"),
        "harness.dispatch_overhead_s": (
            statistics.fmean(overheads) if overheads else 0.0, "s"),
        "harness.worker_idle_frac": (
            stats.worker_idle_frac(serves, n_workers), "fraction"),
        "harness.frames": (tr.counts["harness.frames"], "count"),
        "harness.frame_bytes": (tr.counts["harness.frame_bytes"], "B"),
        "harness.jobs_redispatched": (redispatched, "count"),
        "harness.useful_result_frac": (stats.useful_result_frac(
            tr.samples["harness.results_received"]), "fraction"),
    }


# --- environment record -------------------------------------------------------


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 can only print its config
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    lines = 0
    for path in sorted((SRC / "evomtl").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for _ in f)
    return {"numpy": np.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "src_lines": lines,
            "loadavg": os.getloadavg()}


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:  # no work tree, or a packed ref
        return "unknown"
    return head


# --- a run --------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def select(metrics: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in the result-line format; every
    measured name must follow the metric-name grammar."""
    bad = [n for n in metrics if not stats.valid_metric_name(n)]
    if bad:
        raise BenchError(f"metric names outside the grammar: {bad}")
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": metrics[name][0], "unit": entry["unit"]}
    return out


def rep_seed(seed: int, k: int) -> int:
    """Data seed of the k-th repetition."""
    return seed * 1000 + k


def prepare_data(wl, out: Path, seed: int) -> str | None:
    if not wl.pgm:
        return None
    data_dir = out / f"pgm-{seed}"
    if not data_dir.exists():
        write_pgm_tree(str(data_dir), seed)
    return str(data_dir)


def run_reps(evomtl, wl, args, out: Path) -> list[dict]:
    """Repetitions until --seconds have passed and the units done leave 10
    beyond the workload's tail percentile (but no longer than
    TIMED_CAP_S). Each takes a new seed; with --trace 1 the second seed is
    run untraced and then traced (the first pays the process's warm-up)."""
    min_units = stats.samples_for_tail(wl.tail_pct)
    reps = []
    t0 = time.perf_counter()
    k = units = 0
    while True:
        seed = rep_seed(args.seed, k)
        data_dir = prepare_data(wl, out, seed)
        for traced in (False, True) if args.trace and k == 1 else (False,):
            rep = run_rep(evomtl, wl, seed, out, data_dir, len(reps), traced)
            rep["index"], rep["seed"] = len(reps), seed
            reps.append(rep)
            if rep["error"]:
                return reps
        units += len(unit_bounds(wl, reps[-1]["tracer"].export()))
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= args.seconds and units >= min_units \
                or elapsed >= TIMED_CAP_S:
            return reps


def count_units(wl, reps) -> tuple[int, int]:
    """(attempted, failed): jobs on the cm workloads, meta-iterations on
    ctr (those an aborted run never finished count as failed)."""
    attempted = failed = 0
    for rep in reps:
        tr = rep["tracer"]
        if wl.unit == "meta_iteration":
            planned = int(wl.args[wl.args.index("--meta-iters") + 1])
            attempted += planned
            failed += planned - len(unit_bounds(wl, tr.export()))
            continue
        for batch in tr.samples["serve.batches"]:
            attempted += len(batch["job_ids"])
            failed += sum(r["status"] != "ok" for r in batch["results"])
        attempted += tr.counts["jobs.evaluated"]
        failed += tr.counts["jobs.failed"]
    return int(attempted), int(failed)


def pin_to_one_cpu() -> None:
    """Keep the run, and the processes it starts, on one CPU, so that the
    host-speed probes and the work they scale run on the same core."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def bench(args) -> int:
    wl = WORKLOADS[args.workload]
    pin_to_one_cpu()
    spec = load_spec()
    evomtl = load_evomtl()
    out = ROOT / ".bench_out" / f"{wl.name}-s{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if wl.config:
        with open(config_path(out), "w") as f:
            json.dump(dict(wl.config), f)
    env = environment()

    setup = None
    if not args.trace:
        seed0 = rep_seed(args.seed, 0)
        setup = measure_setup(wl, seed0, out, prepare_data(wl, out, seed0))
    reps = run_reps(evomtl, wl, args, out)

    failures: list[str] = []
    for rep in reps:
        check_rep(wl, rep, failures)
    good = [r for r in reps if "quality" in r]
    first = {}
    for rep in good:
        ref = first.setdefault(rep["seed"], rep)
        if rep["quality"] != ref["quality"]:
            failures.append(f"rep {rep['index']} (traced): report or history "
                            f"differs from untraced rep {ref['index']}")
    replayed = 0
    if wl.loopback and good:
        replayed = replay_check(evomtl, good[0], args.seed, failures)
    attempted, failed = count_units(wl, reps)
    correct = not failures and len(good) == len(reps)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "rep_seeds": [r["seed"] for r in reps],
              "checks": {"failures": failures, "replayed_jobs": replayed},
              "attempted": attempted, "failed": failed, "correct": correct}
    result = {}
    if len(good) == len(reps):
        if args.trace:
            i = next((i for i, r in enumerate(reps) if r["traced"]), None)
            if i is None:
                raise BenchError("the run ended before its traced repetition")
            plain, traced = reps[i - 1], reps[i]
            overhead = stats.normalised(
                traced["t0"], traced["t1"], traced["probes"],
                hostspeed.REF_ROUND_S) - stats.normalised(
                plain["t0"], plain["t1"], plain["probes"],
                hostspeed.REF_ROUND_S)
            metrics, table = per_layer(traced, overhead)
            # the untraced repetitions give raw timings, host speed, quality
            metrics.update(end_to_end(
                wl, None, [r for r in reps if not r["traced"]])[0])
            metrics["failed_frac"] = (failed / attempted, "fraction")
            record["self_time_table"] = table
            with open(traced["run_dir"].parent / "spans.json", "w") as f:
                json.dump(traced["tracer"].export(), f)
            wanted = spec["per_layer"]
        else:
            metrics, record["notes"] = end_to_end(wl, setup, reps)
            metrics["failed_frac"] = (failed / attempted, "fraction")
            wanted = spec["end_to_end"]
        record["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        print_record(record, metrics)
        result = select(metrics, wanted)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    with open(out / "result.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def print_record(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: numpy {env['numpy']}, python "
          f"{env['python']}, nproc {env['nproc']}, threads {env['threads']}, "
          f"git {env['git_sha'][:12]}, src lines {env['src_lines']}")
    for k, v in record.get("notes", {}).items():
        if not isinstance(v, list):
            print(f"  note {k}: {v}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    if "self_time_table" in record:
        print("  self time by layer (summed over threads and processes):")
        for layer, own in record["self_time_table"]:
            print(f"    {layer:12s} {own:10.3f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="OUT_DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.probe_setup:
            return probe_setup(WORKLOADS[args.workload], args.seed,
                               args.probe_setup, args.data)
        return bench(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
