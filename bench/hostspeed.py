"""Host-speed probe: a fixed numpy loop, timed between units of work.

On a shared host a CPU's speed can change by 1.7x for seconds at a time,
with CPU time tracking wall time, so a slow phase cannot be told from a
slow program by the clock alone. The benchmark runs this probe at every
unit boundary, every few optimiser steps and around every set-up process,
and reports timings scaled to a
reference host speed: a duration is multiplied by REF_ROUND_S over the
probe's round time around it (see stats.normalised). The loop is the kind
of work the program does (small padded im2col convolutions), and its
arrays come from its own generator, so probing never draws from the run's
RNG. The program cannot change the probe, so it cannot move the reference.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROUNDS = 4
ITERS = 25
# Round time of the probe on the host the benchmark was defined on, in a
# fast phase; normalised timings are seconds on a host this fast.
REF_ROUND_S = 1.3e-3
# Set-up (imports, file reads, process start) slows less than the probe in
# a slow phase: over 30 runs on that host, log set-up time followed log
# probe round with slope 0.60 to 0.75, so set-up is scaled by
# (REF_ROUND_S / round) ** SETUP_EXPONENT. Small training steps followed
# with slope 0.75 and 0.98 to 1.01 in two samples; timed units are scaled
# linearly.
SETUP_EXPONENT = 0.7

_gen = np.random.default_rng(0)
_X = _gen.random((8, 8, 16))
_W = _gen.random((144, 16))


def _round() -> float:
    t0 = time.perf_counter()
    for _ in range(ITERS):
        xp = np.pad(_X, ((1, 1), (1, 1), (0, 0)))
        cols = np.ascontiguousarray(sliding_window_view(
            xp, (3, 3), axis=(0, 1)).transpose(0, 1, 3, 4, 2)).reshape(64, -1)
        (cols @ _W).sum()
    return time.perf_counter() - t0


def probe() -> tuple[float, float, float]:
    """(start, end, fastest round time) of one probe, on the perf_counter
    clock, which every process of a run shares. The fastest round follows
    the host's phase and ignores one-off stalls (a cold cache after
    another process ran, an interrupt)."""
    start = time.perf_counter()
    per_round = min(_round() for _ in range(ROUNDS))
    return start, time.perf_counter(), per_round
