"""Machine-speed calibration for the benchmark's timings.

The hosts this benchmark runs on are shared virtual machines whose
speed drifts by a factor of up to 1.8 over periods of seconds (another
tenant on the same physical core).  That drift is far larger than the
regressions the benchmark must catch.  So the worker runs a fixed,
program-independent kernel between jobs, and every reported time is
scaled by ``NOMINAL_KERNEL_S / local kernel time``: seconds as they
would read on the host at its nominal speed.

The kernel mixes the three kinds of work the package does: interpreter
bytecode on ints and dicts, ``Fraction`` arithmetic, and small numpy
matrix products reduced mod p.  It never imports the package.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Median kernel time on the reference host (2-vCPU KVM guest, Xeon
# model 207, Python 3.11.7, numpy 2.4.6) when it ran at its usual speed.
NOMINAL_KERNEL_S = 0.0029

# Kernel samples that set one job's speed factor: those taken during the
# job, widened to its nearest neighbours when fewer than this.
WINDOW = 6

# Seconds between kernel samples taken during a job (untraced workers).
TICK_S = 0.05

_BLOCK = None


def kernel() -> float:
    """Run the calibration kernel once; return its duration in seconds."""
    global _BLOCK
    import numpy as np

    if _BLOCK is None:
        _BLOCK = (np.arange(2048 * 9, dtype=np.int64) % 7).reshape(2048, 3, 3)
    start = time.perf_counter()
    s = 0
    d = {}
    for i in range(6000):
        s += i * i % 7
        d[i & 127] = (s, i)
    x = Fraction(1, 3)
    for i in range(150):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 5)
    for _ in range(4):
        b = (_BLOCK @ _BLOCK[5]) % 7
        (b != 0).any(axis=-1)
    return time.perf_counter() - start


def job_factors(samples, spans):
    """Speed factor of each job: nominal / median local kernel time.

    ``samples`` are (end time, kernel seconds) pairs in time order;
    ``spans`` are the jobs' (start, end) times.  Multiplying a job's raw
    seconds by its factor gives nominal-speed seconds.
    """
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < WINDOW and (lo > 0 or hi < len(times)):
            lo = max(0, lo - 1)
            if hi - lo < WINDOW:
                hi = min(len(times), hi + 1)
        out.append(NOMINAL_KERNEL_S / statistics.median(k for _, k in samples[lo:hi]))
    return out
