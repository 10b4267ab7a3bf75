"""Pure helpers for the benchmark: order statistics, span self time,
host-speed normalisation, harness accounting from job results, and the
metric-name grammar.

Nothing here imports evomtl, so the helpers are testable on synthetic
inputs and the benchmark can compute its metrics after a run without
touching the program again.
"""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

# A metric name: starts with a letter or digit, then letters, digits,
# '_', '.' and '-', at most 64 characters in all.
METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME_RE.fullmatch(name) is not None


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile of n samples (exact
    arithmetic, so 99.9% of 10000 is rank 9990)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(samples, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule (a sample value)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(pct, len(xs)) - 1]


def samples_for_tail(pct: float) -> int:
    """Fewest samples that leave TAIL_MIN_BEYOND beyond the pct-th
    percentile (20 for the median, 40 for p75, 100 for p90)."""
    n = TAIL_MIN_BEYOND + 1
    while n - _rank(pct, n) < TAIL_MIN_BEYOND:
        n += 1
    return n


def tail(samples, pct: float) -> float:
    """The pct-th percentile (nearest rank), refused unless at least
    TAIL_MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    if n - _rank(pct, n) < TAIL_MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {n} samples has fewer than "
                         f"{TAIL_MIN_BEYOND} beyond it")
    return nearest_rank(samples, pct)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def self_times(spans):
    """Self time per span: duration minus the durations of its children.

    `spans` is a sequence of (name, start, end, parent) where parent is
    the index of the enclosing span in the same thread, or -1.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, start, end, _) in enumerate(spans)]


def probe_free(start: float, end: float, probes) -> float:
    """Duration of [start, end] less the time host-speed probes took in it.

    `probes` are (start, end, round_s) triples, in any order."""
    busy = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in probes)
    return (end - start) - busy


def normalised(start: float, end: float, probes, ref: float) -> float:
    """Probe-free duration of [start, end] on a host whose probe round
    takes `ref` seconds.

    Time between two probes is scaled by ref over the mean of their round
    times, time before the first probe or after the last by the nearest
    probe's; the probes' own time is left out."""
    probes = sorted(probes)
    if not probes:
        raise ValueError("no host-speed probe")
    gaps = [(-math.inf, probes[0][0], probes[0][2])]
    gaps += [(p[1], q[0], (p[2] + q[2]) / 2)
             for p, q in zip(probes, probes[1:])]
    gaps.append((probes[-1][1], math.inf, probes[-1][2]))
    total = 0.0
    for lo, hi, round_s in gaps:
        overlap = min(hi, end) - max(lo, start)
        if overlap > 0:
            total += overlap * ref / round_s
    return total


def dispatch_overhead_s(serve_s: float, job_walls, n_workers: int) -> float:
    """Coordinator time not explained by evaluation: serve time minus the
    summed job wall time spread over the workers."""
    return serve_s - sum(job_walls) / n_workers


def worker_idle_frac(serves, n_workers: int) -> float:
    """1 - busy worker-seconds / (workers x serve seconds), over a list of
    (serve_s, job_walls) pairs."""
    total = sum(s for s, _ in serves) * n_workers
    if total <= 0:
        return 0.0
    busy = sum(sum(walls) for _, walls in serves)
    return 1.0 - busy / total


def useful_result_frac(received_job_ids) -> float:
    """Distinct results over results received (duplicates are waste)."""
    ids = list(received_job_ids)
    return len(set(ids)) / len(ids) if ids else 0.0
