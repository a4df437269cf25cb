"""Host-speed sampling, so that times measured at different moments on a
shared machine can be compared.

On a shared virtual machine the same pure-Python work can take 40 % longer
for seconds or minutes at a time, which no length of run averages away.
While a run lasts, a SIGALRM handler in the main thread runs a fixed
pure-Python kernel every INTERVAL seconds and records how long it took.
A time t measured while one kernel pass took c seconds is reported as
t * REFERENCE_PASS_S / c: seconds on a host where a pass takes exactly
REFERENCE_PASS_S. The handler's own time is left out of every interval
measured here.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL = 0.05
REFERENCE_PASS_S = 0.001
WINDOW_S = 0.5  # samples this far either side of an interval also count

_A = (3, 14, 7, 0, 11, 5, 9, 1, 15, 2, 12, 6, 10, 4, 13, 8)
_B = (9, 2, 13, 5, 0, 11, 7, 15, 3, 10, 1, 14, 6, 12, 8, 4)
_C = frozenset(range(0, 400, 3))


def kernel_pass() -> int:
    """Tuple composition and small frozenset building and intersection,
    the instruction mix of permutation and subgroup id-set code."""
    x = _A
    acc = 0
    for i in range(250):
        x = tuple(_B[j] for j in x)
        acc += len(frozenset(range(i, i + 48)) & _C)
    return acc


class HostSpeed:
    """Periodic kernel samples over one run; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel_pass()
        cost = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.costs.append(cost)
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent in the sampling handler."""
        return time.perf_counter() - self.stolen

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.stolen

    def interval(self, mark) -> tuple[float, float, float]:
        """(start, end, net seconds) since `mark`."""
        t0, stolen0 = mark
        t1 = time.perf_counter()
        return t0, t1, (t1 - t0) - (self.stolen - stolen0)

    def normalised(self, interval) -> float:
        t0, t1, net = interval
        return net * self.factor(t0, t1)

    def factor(self, start: float | None = None,
               end: float | None = None) -> float:
        """REFERENCE_PASS_S over the mean kernel pass taken within
        WINDOW_S of [start, end], or over the whole run without bounds.
        With no samples at all the factor is 1."""
        costs = self.costs
        if start is not None:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            costs = self.costs[lo:hi] or self.costs
        if not costs:
            return 1.0
        return REFERENCE_PASS_S / statistics.fmean(costs)
