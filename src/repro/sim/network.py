"""The network latency model of the end-to-end simulation.

The paper's testbed measures an average front-end↔back-end RTT of 244 µs
(same-cluster deployment) and argues the gains grow when front ends sit in
edge datacenters with RTTs in the tens of milliseconds; both settings are
a :class:`FixedLatency` (ext-edge-rtt sweeps its RTT). A constant RTT
keeps every simulated instant reproducible.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["FixedLatency", "PAPER_RTT"]

#: The paper's measured same-cluster round-trip time (seconds).
PAPER_RTT = 244e-6


class FixedLatency:
    """Constant RTT; a one-way delay is half of it."""

    def __init__(self, rtt: float = PAPER_RTT) -> None:
        if rtt < 0:
            raise ConfigurationError("rtt must be >= 0")
        self._rtt = rtt

    def rtt(self) -> float:
        """The round-trip time in seconds."""
        return self._rtt

    def one_way(self) -> float:
        """A one-way delay in seconds."""
        return self._rtt / 2.0
