#!/usr/bin/env python3
"""Steadiness check: run each workload N times with seeds 1..N and report
the median and quartiles of every end-to-end metric.

    python3 bench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Uses the command, run length and bounds in BENCHMARK.json, and reads
every end-to-end metric of a run from its result.json, so the ungated
ones (raw timings, host speed, accuracies, cpu_s) are shown too. A gated
metric is flagged FAIL when its inter-quartile spread, as a share of its median,
exceeds its bound, and WARN above a third of the bound. Exits 1 on any
FAIL or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """Every end-to-end metric of one run, or None if the run failed."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        print(f"{workload} seed {seed}: run failed (exit {proc.returncode}): "
              f"{(proc.stderr or proc.stdout)[-500:]}")
        return None
    with open(ROOT / ".bench_out" / f"{workload}-s{seed}" / "result.json") as f:
        record = json.load(f)
    return {k: v["value"] for k, v in record["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(spec, name, seed)
            if res is None:
                bad = True
                continue
            for metric, v in res.items():
                values.setdefault(metric, []).append(v)
        print(f"{name}: {args.runs} runs")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, xs in values.items():
            q1, med, q3 = stats.quartiles(xs)
            spread = stats.relative_spread(xs)
            bound = bounds.get(metric)
            flag = "" if bound is not None else "(not gated)"
            if bound is not None:
                if spread > bound:
                    flag, bad = "FAIL", True
                elif spread > bound / 3:
                    flag = "WARN"
            print(f"  {metric:24s} median {med:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.3f} "
                  f"bound {bound if bound is not None else '-'} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
