"""Assembly of the back-end storage layer: shards + ring + storage.

One :class:`CacheCluster` is shared by all front ends in an experiment,
mirroring the paper's testbed of 8 memcached shards over 4 machines plus a
persistent layer. Front ends talk to it through the server objects the
ring resolves; the cluster also offers whole-layer views (aggregate load,
imbalance) used by the harnesses.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.cluster.backend import BackendCacheServer
from repro.cluster.faults import FaultInjector
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.loadmonitor import load_imbalance
from repro.cluster.storage import PersistentStore
from repro.errors import ClusterError, ConfigurationError

__all__ = ["CacheCluster"]


class CacheCluster:
    """A consistent-hashed fleet of back-end cache shards over storage.

    Parameters
    ----------
    num_servers:
        number of shards (the paper deploys 8).
    capacity_bytes:
        per-shard memory budget (paper: 4 GB).
    virtual_nodes:
        ring points per shard. The default (8192) is much higher than
        ketama's 160 so the ring's *key-count* shares are near-even
        (max/min share ratio ≈ 1.02 for 8 shards) and measured
        load-imbalance reflects workload skew rather than hashing
        artifacts — matching the paper's premise that consistent hashing
        "ensures a fair distribution of the number of keys" while skew
        drives the load problem.
    value_size:
        default accounting size of values (paper: 750 KB).
    storage:
        the persistent layer; a fresh one is created when omitted.
    faults:
        optional :class:`~repro.cluster.faults.FaultInjector` attached to
        every shard (including shards added later), enabling the chaos
        experiments' kill/slow/flaky scenarios.
    """

    def __init__(
        self,
        num_servers: int = 8,
        capacity_bytes: int = 4 * 1024**3,
        virtual_nodes: int = 8192,
        value_size: int = 750 * 1024,
        storage: PersistentStore | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        self._value_size = value_size
        self.faults = faults
        self._servers: dict[str, BackendCacheServer] = {}
        #: monotonic shard-id counter: ids are minted exactly once per
        #: cluster lifetime, so a shard added after a scale-in can never
        #: alias a departed shard and inherit its fault profile, breaker
        #: state, load window or router quarantine entries.
        self._next_server_index = num_servers
        server_ids = [f"cache-{i}" for i in range(num_servers)]
        for server_id in server_ids:
            self._servers[server_id] = BackendCacheServer(
                server_id,
                capacity_bytes=capacity_bytes,
                default_value_size=value_size,
                fault_injector=faults,
            )
        self.ring = ConsistentHashRing(server_ids, virtual_nodes=virtual_nodes)
        self.storage = storage if storage is not None else PersistentStore()
        #: callbacks invoked with a shard id after it revives *cold* (its
        #: contents were wiped). Front ends register here so routing state
        #: keyed on shard contents/load — per-shard epoch load windows,
        #: pending replica demotions — can be reset at the same moment.
        self.cold_revival_listeners: list[Callable[[str], None]] = []
        #: callbacks invoked with a shard id after :meth:`remove_server`
        #: dropped it (mirroring ``cold_revival_listeners``). Front ends
        #: and routers register here to purge per-shard state — breakers,
        #: epoch load windows, replica placements — the moment the shard
        #: leaves, instead of carrying it until some lazy revalidation.
        self.removal_listeners: list[Callable[[str], None]] = []

    # ----------------------------------------------------------- inspection

    @property
    def server_ids(self) -> tuple[str, ...]:
        """Shard identifiers, in creation order."""
        return tuple(self._servers)

    def server(self, server_id: str) -> BackendCacheServer:
        """Resolve a shard object by id."""
        try:
            return self._servers[server_id]
        except KeyError:
            raise ClusterError(f"unknown server: {server_id}") from None

    def server_for(self, key: Hashable) -> BackendCacheServer:
        """The shard responsible for ``key`` per the ring."""
        return self._servers[self.ring.server_for(key)]

    def replicas_for(self, key: Hashable, r: int) -> tuple[str, ...]:
        """The ``r`` distinct shard ids of ``key``'s replica set
        (primary first; see :meth:`ConsistentHashRing.lookup_replicas`)."""
        return self.ring.lookup_replicas(key, r)

    # ------------------------------------------------------ elastic topology

    def add_server(
        self, capacity_bytes: int | None = None
    ) -> BackendCacheServer:
        """Scale out by one shard (cloud elasticity hook).

        The shard id comes from a cluster-lifetime monotonic counter, so
        ids are never reused: naming the shard after the *current* member
        count re-minted a removed shard's id after a scale-in (remove
        ``cache-3`` on a 4-shard cluster, add → ``cache-3`` again), and
        the reincarnation inherited every piece of per-shard state keyed
        on the id — the old FaultInjector profile, OPEN breakers, epoch
        load windows and router quarantines. A fresh id starts clean
        everywhere by construction.
        """
        server_id = f"cache-{self._next_server_index}"
        self._next_server_index += 1
        template = next(iter(self._servers.values()))
        server = BackendCacheServer(
            server_id,
            capacity_bytes=capacity_bytes or template.capacity_bytes,
            default_value_size=self._value_size,
            fault_injector=self.faults,
        )
        self._servers[server_id] = server
        self.ring.add_server(server_id)
        return server

    def remove_server(self, server_id: str) -> None:
        """Scale in: remove a shard (its keys redistribute via the ring).

        Two correctness obligations beyond dropping the shard:

        * **Re-homed copies are purged from survivors.** Removing a shard
          hands its key range back to ring successors, and a successor
          may still hold a copy from an *earlier* ownership stint — one
          that missed every invalidation while the key lived elsewhere
          (add ``D`` → key moves to ``D`` → write deletes on ``D`` only →
          remove ``D`` → the old owner serves its pre-write copy). Every
          survivor drops its copies of the keys the departing shard
          owned, so ownership can never regress onto a stale copy.
          (Additions need no purge: a new shard starts empty and
          ownership only ever moves *to* it.)
        * **Per-shard state is released.** The shard's fault profile is
          cleared here (a later shard must not inherit an injected
          fault), and ``removal_listeners`` fire so front ends and
          routers purge breakers, epoch load windows and replica
          placements keyed on the id.
        """
        if server_id not in self._servers:
            raise ClusterError(f"unknown server: {server_id}")
        if len(self._servers) == 1:
            raise ClusterError("cannot remove the last server")
        server_for = self.ring.server_for
        for sid, survivor in self._servers.items():
            if sid == server_id:
                continue
            for key in survivor.keys():
                if server_for(key) == server_id:
                    survivor.drop(key)
        self.ring.remove_server(server_id)
        del self._servers[server_id]
        if self.faults is not None:
            self.faults.clear(server_id)
        for listener in self.removal_listeners:
            listener(server_id)

    # --------------------------------------------------------------- faults

    def _require_faults(self) -> FaultInjector:
        if self.faults is None:
            raise ClusterError(
                "this cluster was built without a FaultInjector "
                "(pass faults=FaultInjector() to CacheCluster)"
            )
        return self.faults

    def kill_server(self, server_id: str) -> None:
        """Take a shard down (cloud instance failure / migration start)."""
        if server_id not in self._servers:
            raise ClusterError(f"unknown server: {server_id}")
        self._require_faults().kill(server_id)

    def revive_server(self, server_id: str, cold: bool = True) -> None:
        """Bring a shard back.

        ``cold=True`` (default) flushes its contents first — a revived
        cloud instance restarts with an empty cache, which also removes
        any copies that went stale while write-path invalidations could
        not reach the dead shard.
        """
        server = self.server(server_id)
        self._require_faults().revive(server_id)
        if cold:
            server.flush()
            for listener in self.cold_revival_listeners:
                listener(server_id)

    # ------------------------------------------------------------ aggregate

    def loads(self) -> dict[str, int]:
        """Lifetime lookup counts per shard (server-side view)."""
        return {sid: s.stats.gets for sid, s in self._servers.items()}

    def epoch_loads(self) -> dict[str, int]:
        """Per-epoch lookup counts per shard."""
        return {sid: s.stats.epoch_gets for sid, s in self._servers.items()}

    def imbalance(self) -> float:
        """Server-side lifetime load-imbalance (max/min of shard gets)."""
        return load_imbalance(self.loads())

    def total_lookups(self) -> int:
        """All lookups that reached the caching layer."""
        return sum(s.stats.gets for s in self._servers.values())

    def reset_epoch(self) -> None:
        """Start a new epoch window on every shard."""
        for server in self._servers.values():
            server.stats.reset_epoch()

    def flush(self) -> None:
        """Flush every shard's contents."""
        for server in self._servers.values():
            server.flush()
