"""A fixed reference computation that measures the machine's current speed.

The shared host the benchmark runs on changes speed by up to 1.7 times
over seconds to minutes, and CPU time follows wall time, so the slowdown
is not steal time a guest could subtract.  A wall time divided by the
wall time of a fixed computation timed right beside it cancels most of
that drift.  The computation uses numpy and the interpreter only, never
``permz``, so a change to the program moves the workload's time and not
the reference's.  It mixes what the workloads spend their time on:
stable argsorts of short sliding windows, a Python-level counting loop
over the codes, and float text written and parsed back.
"""

from __future__ import annotations

import time

import numpy as np

LENGTH = 120_000
ORDER = 5
TEXT_SAMPLES = 20_000
# The distinct 5-windows of the fixed series below; a wrong kernel fails loudly.
EXPECTED_PATTERNS = 120
# The scale of "reference seconds": about the wall of one pass of
# ``reference_work`` on the host the benchmark was written on (2-vCPU KVM
# guest, Intel Xeon, Python 3.11, numpy 2.4) while it ran fastest.  A time
# divided by the reference wall beside it, times this, reads as seconds
# on that host.
REFERENCE_S = 0.04


def reference_work() -> int:
    """One pass of the fixed computation; returns its distinct pattern count."""
    x = np.random.default_rng(20240).random(LENGTH)
    ranks = np.argsort(np.lib.stride_tricks.sliding_window_view(x, ORDER),
                       axis=1, kind="stable")
    codes = ranks @ (ORDER ** np.arange(ORDER))
    counts: dict[int, int] = {}
    for code in codes.tolist():
        counts[code] = counts.get(code, 0) + 1
    head = x[:TEXT_SAMPLES]
    back = np.array("\n".join(map(repr, head.tolist())).split(), dtype=np.float64)
    if not np.array_equal(back, head) or len(counts) != EXPECTED_PATTERNS:
        raise RuntimeError("reference computation gave a wrong result")
    return len(counts)


def reference_wall() -> float:
    """Wall time of one pass of the reference computation, in seconds."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
