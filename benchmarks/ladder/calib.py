"""Host-speed calibration for the ladder's timing rule.

This host's core speed drifts by tens of percent between (and within)
runs, and the drift moves every pure-Python figure together. A fixed
pure-Python loop run right before and right after each timed block
measures the speed the block actually got; dividing by it turns raw
figures into host-independent ones:

    rate     = ops / wall_s * (calib_s / CALIB_REF_S)
    latency  = raw * (CALIB_REF_S / calib_s)

``CALIB_REF_S`` is the loop's median time on the host where the
benchmark landed, frozen here so normalised numbers still read as
ops/s and microseconds. Changing it rescales every timing metric, so it
never changes after landing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["CALIB_REF_S", "Calibrator", "one_cpu"]

#: median ``Calibrator.run()`` time on the landing host (seconds).
CALIB_REF_S = 0.0400

_ENTRIES = 200_000


class _Sink:
    """Target of the loop's bound-method call."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


class Calibrator:
    """The calibration loop: dict lookups plus a bound-method call.

    The same shape as the serving path's hot code (string-keyed dict
    probes, attribute writes, method calls), so it speeds up and slows
    down with it.
    """

    def __init__(self) -> None:
        self._table = {f"usertable:{i}": i for i in range(_ENTRIES)}
        self._keys = list(self._table)

    def run(self) -> float:
        """Run the loop once; returns its wall time in seconds."""
        lookup = self._table.__getitem__
        add = _Sink().add
        start = time.perf_counter()
        for key in self._keys:
            add(lookup(key))
        return time.perf_counter() - start


@contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this thread, and every thread it starts meanwhile, to one CPU.

    For code in which two threads hand each request back and forth. Left
    to the scheduler they sometimes share a core and sometimes do not, for
    minutes at a time, and across cores a hand-off costs 2-4x more on this
    host: pinned, every run measures the same (cheaper) placement.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
