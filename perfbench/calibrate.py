"""Machine-speed calibration for timings taken on a shared, drifting host.

The benchmark's host runs other tenants' work, and its speed for the same
single-threaded code drifts by 20-30% over seconds to minutes.  A fixed
calibration kernel (integer arithmetic, dict updates and small numpy calls,
about 25 ms) is timed several times during each round, and the round's
operation times are scaled by NOMINAL_S over the kernel's median time in the
round: the result is the time the operations would take at the reference
speed, at which the kernel takes NOMINAL_S.  The median over a round tracks
the slow drift without passing on the kernel's own fast jitter.  The kernel
never calls balex and allocates nothing large, so neither the program's code
nor its memory use can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.025   # about the kernel's median on the 2-vCPU machine the benchmark was built on
_SMALL = np.arange(64) & 15


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x ^= (i * i) & 0xFFFF
    tally: dict[int, int] = {}
    for i in range(30_000):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    for _ in range(1_500):
        np.bincount(_SMALL, minlength=16).sum()
    return time.perf_counter() - t0


class Scaler:
    """Speed factor of one round: NOMINAL_S over the median kernel time sampled
    at the round's start, at its end, and after every batch_s seconds of
    operations."""

    def __init__(self, batch_s: float = 0.15):
        self.batch_s = batch_s
        self.kernel: list[float] = []   # every sample of the run
        self._round: list[float] = []
        self._since = 0.0

    def start_round(self) -> None:
        self._round, self._since = [kernel_seconds()], 0.0

    def tick(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= self.batch_s:
            self._round.append(kernel_seconds())
            self._since = 0.0

    def end_round(self) -> float:
        self._round.append(kernel_seconds())
        self.kernel += self._round
        return NOMINAL_S / statistics.median(self._round)
