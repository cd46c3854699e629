"""Failure injection for the cluster and simulator layers.

The paper deploys CoT precisely because "cloud instance migration is the
norm": back-end shards disappear, reappear, slow down, and flake. This
module is the single switchboard for injecting those behaviours into
:class:`~repro.cluster.backend.BackendCacheServer` — the data plane under
every runner, the simulator's included — so chaos experiments and the
retry layer's tests share one fault model;
:class:`~repro.sim.server.SimBackendServer` (the discrete-event timing
model) reads it for the slowdown factor only:

* **kill / revive** — the shard answers nothing while down
  (:class:`~repro.errors.ShardDownError`);
* **slowdown** — a service-time multiplier. The simulator inflates the
  shard's service time by it; the data plane has no clock, so a
  slowdown at or beyond :data:`TIMEOUT_FACTOR` is surfaced as the
  client's request timer firing (:class:`~repro.errors.ShardTimeoutError`);
* **flaky** — each request independently fails with probability
  ``error_rate`` (:class:`~repro.errors.ShardFlakyError`), seeded and
  deterministic.

A shard with no injected fault pays one ``dict.get`` per request; a
server whose ``fault_injector`` is ``None`` pays a single ``is None``
check, keeping the healthy path inside the perf gate's budget. The
injector keeps no count of its own: the shard counts every request a
fault refused (:attr:`~repro.cluster.backend.BackendStats.fault_errors`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    ShardDownError,
    ShardFlakyError,
    ShardTimeoutError,
)

__all__ = ["FaultInjector", "ShardFaultProfile", "TIMEOUT_FACTOR"]

#: slowdown multiplier at (or beyond) which the live data plane reports a
#: client-side timeout instead of merely serving slowly — the untimed
#: cluster's stand-in for a per-request timer. The simulator, which has a
#: clock, keeps serving below it with inflated service times.
TIMEOUT_FACTOR = 8.0


@dataclass
class ShardFaultProfile:
    """The injected condition of one shard (all healthy by default)."""

    down: bool = False
    slowdown: float = 1.0
    flaky_rate: float = 0.0


class FaultInjector:
    """Per-shard fault switchboard shared by live servers and the simulator.

    Parameters
    ----------
    seed:
        seeds the flaky-error coin so chaos runs are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._profiles: dict[str, ShardFaultProfile] = {}
        self._rng = random.Random(seed)

    # ------------------------------------------------------------- controls

    def profile(self, server_id: str) -> ShardFaultProfile:
        """The (mutable) fault profile of ``server_id``, created on demand."""
        profile = self._profiles.get(server_id)
        if profile is None:
            profile = self._profiles[server_id] = ShardFaultProfile()
        return profile

    def kill(self, server_id: str) -> None:
        """Take the shard down; every request fails until :meth:`revive`."""
        self.profile(server_id).down = True

    def revive(self, server_id: str) -> None:
        """Bring the shard back (breakers re-probe it on their own)."""
        self.profile(server_id).down = False

    def set_slowdown(self, server_id: str, factor: float) -> None:
        """Inflate the shard's service time by ``factor`` (1.0 = healthy)."""
        if factor < 1.0:
            raise ConfigurationError("slowdown factor must be >= 1")
        self.profile(server_id).slowdown = factor

    def set_flaky(self, server_id: str, error_rate: float) -> None:
        """Make each request fail independently with ``error_rate``."""
        if not 0.0 <= error_rate <= 1.0:
            raise ConfigurationError("error_rate must be in [0, 1]")
        self.profile(server_id).flaky_rate = error_rate

    def clear(self, server_id: str) -> None:
        """Remove every injected fault from the shard."""
        self._profiles.pop(server_id, None)

    # ----------------------------------------------------------- inspection

    def is_down(self, server_id: str) -> bool:
        """Whether the shard is currently killed."""
        profile = self._profiles.get(server_id)
        return profile.down if profile is not None else False

    def slowdown(self, server_id: str) -> float:
        """The shard's current service-time multiplier."""
        profile = self._profiles.get(server_id)
        return profile.slowdown if profile is not None else 1.0

    def down_servers(self) -> frozenset[str]:
        """Ids of every currently-killed shard."""
        return frozenset(
            sid for sid, profile in self._profiles.items() if profile.down
        )

    def tracked_servers(self) -> frozenset[str]:
        """Ids with a fault profile on record (healthy profiles included).

        Cluster-wide invariant checks assert this stays a subset of the
        live membership: :meth:`~repro.cluster.cluster.CacheCluster.remove_server`
        clears the departing shard's profile, so a dead-set entry can
        never outlive its shard and leak onto a future one.
        """
        return frozenset(self._profiles)

    # ------------------------------------------------------------ injection

    def check(self, server_id: str) -> None:
        """Raise the failure this request suffers, if any (live data plane)."""
        profile = self._profiles.get(server_id)
        if profile is None:
            return
        if profile.down:
            raise ShardDownError(f"shard {server_id} is down")
        if profile.slowdown >= TIMEOUT_FACTOR:
            raise ShardTimeoutError(
                f"shard {server_id} exceeded the request deadline "
                f"({profile.slowdown:g}x slowdown)"
            )
        if profile.flaky_rate and self._rng.random() < profile.flaky_rate:
            raise ShardFlakyError(f"shard {server_id} flaked")
