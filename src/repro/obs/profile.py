"""Profiling hook: periodic telemetry snapshots.

:class:`PeriodicSnapshotter` attributes *how telemetry evolved over a
run* (the chaos experiment): ``maybe_sample(i)`` freezes the bus every
``every`` ticks (accesses, epochs — whatever the caller counts),
producing a time series of
:class:`~repro.engine.telemetry.TelemetrySnapshot`\\ s that lets a
report attribute counter growth to run segments after the fact. (Where
a run's wall-clock went is the ladder's question:
``benchmarks/ladder --trace 1`` prices every layer.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.telemetry import TelemetryBus, TelemetrySnapshot

__all__ = ["PeriodicSnapshotter"]


class PeriodicSnapshotter:
    """Epoch-aligned telemetry sampling off a live :class:`TelemetryBus`.

    Callers tick :meth:`maybe_sample` with a monotone index (access
    count, epoch index); every ``every`` ticks the bus is frozen and the
    snapshot appended to :attr:`samples` as ``(index, snapshot)``.
    Snapshots are taken through the bus's normal freeze path, so sampling
    is strictly additive — it never mutates the run.
    """

    def __init__(self, bus: "TelemetryBus", every: int) -> None:
        if every < 1:
            raise ConfigurationError("snapshot period must be >= 1")
        self.bus = bus
        self.every = every
        self.samples: list[tuple[int, "TelemetrySnapshot"]] = []
        self._last_index: int | None = None

    def maybe_sample(self, index: int) -> bool:
        """Snapshot when ``index`` crosses the next period boundary."""
        if index % self.every != 0:
            return False
        if self._last_index == index:
            return False  # idempotent against repeated ticks at one index
        self._last_index = index
        self.samples.append((index, self.bus.snapshot()))
        return True

    def counter_deltas(self, name: str) -> list[tuple[int, int]]:
        """Per-interval growth of one counter across the samples."""
        out: list[tuple[int, int]] = []
        previous = 0
        for index, snapshot in self.samples:
            value = snapshot.counter(name)
            out.append((index, value - previous))
            previous = value
        return out
