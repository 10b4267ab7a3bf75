"""Loopback evaluation worker for the cm-loopback workload.

Does what `evomtl worker --addr HOST:PORT` does (it calls
`harness.run_worker`), after installing the benchmark's wrappers, and
writes what they recorded to a JSON file when it exits:

    python3 bench/worker.py --addr 127.0.0.1:5000 --trace 0 --dump w.json

Started and restarted by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--addr", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import evomtl.cli  # noqa: F401  (loads every evomtl module)
    import tracing

    evomtl = sys.modules["evomtl"]
    tracer = tracing.Tracer(full=bool(args.trace))
    tracing.install(tracer, evomtl)
    # the benchmark stops idle workers with SIGTERM; exit through finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return evomtl.harness.run_worker(args.addr)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        tracer.unpatch()
        dump = {"pid": os.getpid(),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "counts": dict(tracer.counts),
                "samples": {k: v for k, v in tracer.samples.items()},
                "spans": tracer.export()}
        tmp = args.dump + ".part"
        with open(tmp, "w") as f:
            json.dump(dump, f)
        os.replace(tmp, args.dump)


if __name__ == "__main__":
    sys.exit(main())
