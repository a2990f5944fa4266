"""Host speed probe: rescales measured times to a nominal host speed.

On a shared host the same pure-Python work can take 1.5x longer for
seconds at a time while neighbours are busy, so raw wall times of two
runs a minute apart differ by more than the changes the benchmark must
detect. The probe runs a fixed reference loop from a timer signal every
``INTERVAL_S`` while a run measures, and each measured interval is
rescaled by how long the loop took around it:

    nominal = (raw - probe time inside the interval) * NOMINAL_S / r

where ``r`` is the median loop duration of the probes within
``WINDOW_S`` of the interval. The loop touches nothing of the simulator
and allocates no container objects, so it cannot start a garbage
collection; only the host's speed moves it.

The loop is integer arithmetic on a small dict. Loops that allocate
objects or read a large buffer were tried in its place; on the host the
bounds were tuned on, neither followed the workloads more closely.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional, Tuple

NOMINAL_S = 0.001  # reported times are as if one loop took exactly this long
INTERVAL_S = 0.05
WINDOW_S = 0.1
ITERATIONS = 4_500  # about NOMINAL_S with CPython 3.11 on a 2-vCPU x86-64 VM


def reference_loop(table: dict) -> int:
    total = 0
    for i in range(ITERATIONS):
        key = i & 63
        value = table[key] + i
        table[key] = value & 0xFFFF
        total += value
    return total


class SpeedProbe:
    """Samples the reference loop from SIGALRM while in a ``with`` block."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(64), 0)
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous: Optional[object] = None
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a sample is skipped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop(self._table)
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def nominal(self, begin: float, end: float) -> Tuple[float, float]:
        """(nominal seconds, raw seconds without probe time) of [begin, end]."""
        starts, durations = self.starts, self.durations
        inside = sum(durations[bisect.bisect_left(starts, begin):bisect.bisect_right(starts, end)])
        lo = bisect.bisect_left(starts, begin - WINDOW_S)
        hi = bisect.bisect_right(starts, end + WINDOW_S)
        near = durations[lo:hi] or durations[max(0, lo - 1):lo + 1]  # signals held off
        raw = end - begin - inside
        return raw * NOMINAL_S / statistics.median(near), raw

    def speed(self) -> float:
        """Median host speed over the whole probe, nominal = 1."""
        return NOMINAL_S / statistics.median(self.durations)
