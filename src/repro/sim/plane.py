"""The simulation plane: a cluster facade that remembers which hops ran.

The third data plane beside :class:`~repro.cluster.cluster.CacheCluster`
itself and :class:`~repro.net.plane.NetworkPlane`, and the same duck-typed
facade: an **unchanged** :class:`~repro.cluster.client.FrontEndClient`
runs against the real shards *at once*, and every shard verb appends
``(shard_id, verb, landed)`` to a per-client log for
:class:`~repro.sim.client.SimClient` to replay on the event heap. Content
is therefore read at *issue* time; simulated time is spent afterwards and
never changes what a request decided.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.cluster.backend import BackendCacheServer
from repro.cluster.cluster import CacheCluster
from repro.errors import ShardFailure

__all__ = ["SimPlane"]


class _LoggedShard:
    """Shard stand-in: run the verb on the real shard now, log the hop."""

    __slots__ = ("server_id", "_backend", "_hops")

    def __init__(self, backend: BackendCacheServer, hops: list) -> None:
        self.server_id = backend.server_id
        self._backend = backend
        self._hops = hops

    def _run(self, verb: str, op: Callable[..., Any], *args: Any) -> Any:
        try:
            result = op(*args)
        except ShardFailure:
            self._hops.append((self.server_id, verb, False))
            raise
        self._hops.append((self.server_id, verb, True))
        return result

    def get(self, key: Hashable) -> Any:
        return self._run("get", self._backend.get, key)

    def get_many(self, keys: list[Hashable]) -> dict[Hashable, Any]:
        return self._run("get_many", self._backend.get_many, keys)

    def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        self._run("set", self._backend.set, key, value, size)

    def delete(self, key: Hashable) -> bool:
        return self._run("delete", self._backend.delete, key)


class SimPlane:
    """One client's view of a shared :class:`CacheCluster`, hops logged.

    The owner clears ``hops`` before a request and reads it after. Ring,
    storage and listener lists are the cluster's own, shared across
    clients exactly as on the in-process plane.
    """

    def __init__(self, cluster: CacheCluster) -> None:
        self.cluster = cluster
        self.ring = cluster.ring
        self.storage = cluster.storage
        self.removal_listeners = cluster.removal_listeners
        self.cold_revival_listeners = cluster.cold_revival_listeners
        self.replicas_for = cluster.replicas_for
        self.hops: list[tuple[str, str, bool]] = []

    @property
    def server_ids(self) -> tuple[str, ...]:
        return self.cluster.server_ids

    def server(self, server_id: str) -> _LoggedShard:
        return _LoggedShard(self.cluster.server(server_id), self.hops)

    def server_for(self, key: Hashable) -> _LoggedShard:
        return self.server(self.ring.server_for(key))
