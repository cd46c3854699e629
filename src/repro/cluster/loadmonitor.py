"""Front-end-local back-end load monitoring.

CoT is decentralized: each front end measures *its own contribution* to
back-end load-imbalance from the lookups it sends (Section 4.1 defines
``I_c`` as the ratio between the most and least loaded back-end server *as
observed at this front end* during an epoch). The paper's testbed patches
spymemcached to do this; here the front-end client records every lookup it
routes.

Both lifetime and per-epoch windows are kept: lifetime counters feed the
whole-experiment imbalance numbers of Figure 3 / Table 2, the epoch window
feeds Algorithm 3.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import ClusterError

__all__ = ["LoadMonitor", "load_imbalance", "noise_allowance"]


def load_imbalance(loads: Mapping[str, int] | Iterable[int]) -> float:
    """The paper's load-imbalance metric: max load / min load.

    A server that received zero lookups is floored at 1 lookup so the
    ratio stays finite (an idle server is "infinitely" imbalanced only in
    the limit; the floor keeps epochs with tiny traffic comparable).
    Returns 1.0 for empty input — a vacuously balanced system.
    """
    values = list(loads.values()) if isinstance(loads, Mapping) else list(loads)
    if not values:
        return 1.0
    highest = max(values)
    if highest <= 0:
        return 1.0
    lowest = max(min(values), 1)
    return highest / lowest


def noise_allowance(sample: int, num_servers: int) -> float:
    """Multiplicative slack on an imbalance target for a finite sample.

    For ``n`` balanced lookups over ``k`` shards the per-shard relative
    standard deviation is ``sqrt((k-1)/n)``; the expected max-min spread
    across k≈8 shards is ≈2.9 of those, so the measured max/min ratio of
    a *perfectly balanced* system concentrates near ``1 + 3σ``. At paper
    scale the allowance vanishes (<1% at 1M lookups). Returns 1.0 (trust
    the measurement) for an empty sample or a single shard.
    """
    if sample <= 0 or num_servers <= 1:
        return 1.0
    return 1.0 + 3.2 * math.sqrt((num_servers - 1) / sample)


class LoadMonitor:
    """Per-back-end lookup counters with lifetime and epoch windows."""

    def __init__(self, servers: Iterable[str]) -> None:
        server_list = list(servers)
        if not server_list:
            raise ClusterError("load monitor needs at least one server")
        self._total: dict[str, int] = {s: 0 for s in server_list}
        self._epoch: dict[str, int] = {s: 0 for s in server_list}
        #: servers first observed inside the current epoch (mid-epoch
        #: joiners): their partial counts are not representative of a full
        #: epoch, so churn-safe consumers exclude them for one epoch.
        self._epoch_new: set[str] = set()
        #: reads served by storage fallback because the owning shard was
        #: unavailable, per shard (graceful-degradation instrumentation)
        self._degraded: dict[str, int] = {}
        self._epoch_degraded = 0

    # ------------------------------------------------------------------ api

    @property
    def servers(self) -> tuple[str, ...]:
        """Monitored server ids."""
        return tuple(self._total)

    @property
    def epoch_window(self) -> Mapping[str, int]:
        """The live per-epoch load dict (read-only view for hot paths).

        Two-choices routing compares two shard loads per replicated read;
        going through :meth:`epoch_loads`'s defensive copy would make the
        comparison O(shards) per read. The returned mapping is the
        monitor's own dict — callers may bind it once (its identity is
        stable across :meth:`reset_epoch`/:meth:`reset`) but must never
        mutate it.
        """
        return self._epoch

    def epoch_load(self, server: str) -> int:
        """This epoch's lookup count for one shard (0 if never seen)."""
        return self._epoch.get(server, 0)

    def record_lookup(self, server: str) -> None:
        """Count one lookup routed to ``server``.

        Servers unknown at construction are registered on first sight —
        the caching layer's topology changes under the front end when the
        cluster scales out, and consistent hashing will route lookups to
        the new shard before any reconfiguration notice.
        """
        if server not in self._total:
            self._total[server] = 0
            self._epoch[server] = 0
            self._epoch_new.add(server)
        self._total[server] += 1
        self._epoch[server] += 1

    def record_degraded(self, server: str) -> None:
        """Count one degraded read: ``server`` was unavailable and the
        value was served from persistent storage instead."""
        self._degraded[server] = self._degraded.get(server, 0) + 1
        self._epoch_degraded += 1

    def total_loads(self) -> dict[str, int]:
        """Lifetime lookup counts per server."""
        return dict(self._total)

    def epoch_loads(self) -> dict[str, int]:
        """Lookup counts per server since the last epoch reset."""
        return dict(self._epoch)

    def total_lookups(self) -> int:
        """Lifetime lookups across all servers."""
        return sum(self._total.values())

    def epoch_lookups(self) -> int:
        """Epoch-window lookups across all servers."""
        return sum(self._epoch.values())

    def epoch_new_servers(self) -> frozenset[str]:
        """Servers first seen during the current epoch (mid-epoch joiners)."""
        return frozenset(self._epoch_new)

    def degraded_reads(self) -> int:
        """Lifetime reads served by storage fallback (all servers)."""
        return sum(self._degraded.values())

    def epoch_degraded(self) -> int:
        """Degraded reads since the last epoch reset."""
        return self._epoch_degraded

    def degraded_by_server(self) -> dict[str, int]:
        """Lifetime degraded-read counts per unavailable shard."""
        return dict(self._degraded)

    def imbalance(self) -> float:
        """Lifetime ``I`` = max/min over per-server lookup counts."""
        return load_imbalance(self._total)

    def epoch_imbalance(self) -> float:
        """``I_c`` over the current epoch window (Algorithm 3 input)."""
        return load_imbalance(self._epoch)

    def forget_server(self, server: str) -> None:
        """Purge a removed shard's lookup state (scale-in housekeeping).

        Both the lifetime counter and the epoch window are dropped:
        leaving the lifetime entry in place would make any later shard
        that reuses the id look *already known* to
        :meth:`record_lookup`, so it would skip the mid-epoch-joiner
        marking and splice its partial window onto the dead
        incarnation's counts — the double-count behind phantom
        imbalance spikes. With the entry gone, a reincarnated id
        registers as a fresh joiner like any other new shard.
        Degraded-read history (:meth:`degraded_by_server`) is kept — it
        is a lifetime diagnostic of what happened, not routing state.
        """
        self._total.pop(server, None)
        self._epoch.pop(server, None)
        self._epoch_new.discard(server)

    def reset_server_window(self, server: str) -> None:
        """Zero one shard's *epoch* window (cold-revival accounting fix).

        A shard that revives cold starts from an empty cache and zero
        real load, but its epoch counter still holds the lookups routed
        at it before (and during) the outage. Leaving those in place
        skews power-of-two-choices routing: the revived shard looks
        loaded and is shunned (or, had it been idle pre-kill, looks cold
        and is flooded). Lifetime counters are left untouched — they are
        the whole-experiment measurement, not the routing signal.
        """
        if server in self._epoch:
            self._epoch[server] = 0

    def reset_epoch(self) -> None:
        """Start a new epoch window."""
        for server in self._epoch:
            self._epoch[server] = 0
        self._epoch_new.clear()
        self._epoch_degraded = 0

    def reset(self) -> None:
        """Zero everything."""
        for server in self._total:
            self._total[server] = 0
        self._degraded.clear()
        self.reset_epoch()
