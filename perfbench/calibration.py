"""Machine-speed calibration of the benchmark's time metrics.

Other load on a shared machine slows every instruction of this process,
by up to 1.9x here, in stretches from milliseconds to many minutes.  A
fixed kernel that does not touch phasekit (interpreted float arithmetic,
``Fraction`` arithmetic and dict updates, the interpreter-bound kind of
work the library does) is timed between rounds; scaling a round's time by
``REFERENCE_S`` over the kernel's time around it cancels the slow-down,
and leaves times as they would be with the kernel at ``REFERENCE_S``.
The kernel imports nothing but the standard library, so it can also run
before phasekit is imported.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Kernel time on the 2-core machine the benchmark was built on, when not
#: slowed by other load: 4000 timings in a row gave a 5th percentile of
#: 1.41 ms and a median of 2.34 ms, while that load lasted.
REFERENCE_S = 1.4e-3


def kernel_s() -> float:
    """Seconds taken by one run of the fixed kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(6000):
        total += i * 0.5
    fractions = {}
    for i in range(600):
        fractions[i] = Fraction(i, 7) + 1
    return time.perf_counter() - start


def kernel_median_s(repeats: int = 3) -> float:
    """Median of ``repeats`` kernel timings, run back to back."""
    return statistics.median(kernel_s() for _ in range(repeats))
