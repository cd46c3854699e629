"""Consistent hashing (Karger et al. 1997), spymemcached-style.

Front ends locate keys in the caching layer with a ketama-like consistent
hash ring: each back-end server owns many virtual points on a 32-bit ring
(MD5-derived), and a key maps to the first server point at or after the
key's hash. This solves key discovery and minimizes churn when servers
join or leave — and, as the paper stresses, it balances *key counts* but
not *key workloads*, which is exactly the load-imbalance CoT attacks.

The replicated hot-key tier extends the single-owner mapping with
:meth:`ConsistentHashRing.lookup_replicas`: the ``r`` *distinct* servers
whose points follow the key's hash, in ring order, with the primary owner
first — DistCache-style replica placement without a second hash function.
Replica lookups are served from a per-ring-epoch successor table so the
hot read path pays one bisect plus a tuple fetch rather than ``r`` ring
walks. Every lookup bisects one bucket of a ring-wide index keyed by the
point's top bits, about one point, instead of the whole ring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Hashable, Iterable, Sequence

try:
    # CPython's builtin RFC 1321 MD5, ~2x faster per key than hashlib's:
    # under OpenSSL 3 ``hashlib.md5`` fetches the digest afresh for every
    # hash object. The digests are the same, so ring placement is too.
    from _md5 import md5
except ImportError:  # an interpreter built without the module
    from hashlib import md5

from repro.errors import ClusterError, ConfigurationError

__all__ = ["ConsistentHashRing"]


def _hash32(data: str) -> int:
    """First 4 bytes of MD5 as an unsigned 32-bit ring position."""
    digest = md5(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


#: Member sets whose built rings are kept. An 8 x 8,192-vnode ring holds
#: ~3 MB of lists; an experiment grid rebuilds a handful of member sets
#: (one per churn phase) for every cell.
_RING_MEMO_SIZE = 8

#: Most bits of a point that pick its bucket: a 65,536-point ring gets
#: 2**16 + 1 bucket starts (512 KiB), about one point per bucket.
_INDEX_BITS = 16

#: ``(_hash32, members, vnodes) -> (points, owners, shift, starts)``. Rings
#: share these and never mutate them in place: membership changes rebind.
_RING_MEMO: dict[tuple, tuple[list[int], list[str], int, array]] = {}


def _bucket_index(points: list[int]) -> tuple[int, array]:
    """``(shift, starts)`` over sorted ``points``: the points whose top bits
    ``point >> shift`` equal ``b`` sit at ``points[starts[b]:starts[b + 1]]``.

    ``2**bits`` buckets with ``bits = floor(log2(len(points)))`` (capped at
    :data:`_INDEX_BITS`) hold about one point each; one counting pass and a
    running sum build them, with no second sort.
    """
    bits = min(_INDEX_BITS, max(len(points).bit_length() - 1, 0))
    shift = 32 - bits
    counts = [0] * (1 << bits)
    for point in points:
        counts[point >> shift] += 1
    return shift, array("l", accumulate(counts, initial=0))


def _placed(
    members: frozenset[str], vnodes: int, ring: "ConsistentHashRing | None" = None
) -> tuple[list[int], list[str], int, array]:
    """``(points, owners, shift, starts)`` of ``members``' virtual nodes,
    sorted by ``(point, owner)`` and bucket-indexed: memoised, or one sort
    of every point — ``ring``'s placed points plus the hashed points of the
    members it lacks.

    ``_hash32`` is part of the memo key, so a ring built under a
    substituted hash never shares lists with one built under MD5.
    """
    memo_key = (_hash32, members, vnodes)
    placed = _RING_MEMO.get(memo_key)
    if placed is not None:
        return placed
    pairs: list[tuple[int, str]] = []
    new = members
    if ring is not None:  # a join: keep the placed points, hash the joiner's
        pairs, new = list(zip(ring._points, ring._owners)), members - ring._servers
    pairs.extend(
        (_hash32(f"{server}#{replica}"), server)
        for server in new
        for replica in range(vnodes)
    )
    pairs.sort()
    points = [p for p, _ in pairs]
    placed = (points, [o for _, o in pairs], *_bucket_index(points))
    if len(_RING_MEMO) >= _RING_MEMO_SIZE:
        del _RING_MEMO[next(iter(_RING_MEMO))]
    _RING_MEMO[memo_key] = placed
    return placed


class ConsistentHashRing:
    """MD5-based consistent hash ring with virtual nodes.

    Parameters
    ----------
    servers:
        initial server identifiers (any strings).
    virtual_nodes:
        points per server on the ring. 160 mirrors ketama's 40×4 layout;
        more points smooth key-count balance at the cost of memory.
    """

    def __init__(
        self,
        servers: Iterable[str] = (),
        virtual_nodes: int = 160,
    ) -> None:
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        self._virtual_nodes = virtual_nodes
        self._servers: set[str] = set()
        for server in servers:
            if server in self._servers:
                raise ClusterError(f"server already on ring: {server}")
            self._servers.add(server)
        self._points, self._owners, self._shift, self._starts = _placed(
            frozenset(self._servers), virtual_nodes
        )
        #: monotone membership-change counter; every add/remove bumps it
        #: (construction counts one add per server), invalidating the
        #: cached successor tables below
        self._epoch = len(self._servers)
        #: ``r -> tuple-per-ring-point of the next r distinct owners``,
        #: built lazily per (epoch, r) so replica lookups are one bisect
        self._successors: dict[int, list[tuple[str, ...]]] = {}

    # ------------------------------------------------------------------ api

    @property
    def servers(self) -> frozenset[str]:
        """The current server set."""
        return frozenset(self._servers)

    @property
    def virtual_nodes(self) -> int:
        """Ring points per server."""
        return self._virtual_nodes

    @property
    def epoch(self) -> int:
        """Membership-change counter (bumped by every add/remove)."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server: str) -> bool:
        return server in self._servers

    def add_server(self, server: str) -> None:
        """Place ``server``'s virtual points on the ring.

        The ring is kept sorted by ``(point, owner)``: a 32-bit hash
        collision between two servers' virtual points is broken by owner
        id, never by insertion order, so ring ownership is a pure
        function of the member set — a freshly built ring and one that
        saw arbitrary churn agree on every key.
        """
        if server in self._servers:
            raise ClusterError(f"server already on ring: {server}")
        self._points, self._owners, self._shift, self._starts = _placed(
            frozenset(self._servers | {server}), self._virtual_nodes, self
        )
        self._servers.add(server)
        self._epoch += 1
        self._successors.clear()

    def remove_server(self, server: str) -> None:
        """Remove all of ``server``'s points (its keys redistribute)."""
        if server not in self._servers:
            raise ClusterError(f"server not on ring: {server}")
        self._servers.remove(server)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != server
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]
        self._shift, self._starts = _bucket_index(self._points)
        self._epoch += 1
        self._successors.clear()

    def server_for(self, key: Hashable) -> str:
        """The server responsible for ``key``.

        ``bisect_left`` realizes "first server point at or after the
        key's hash": a point equal to the key's hash owns the key, and
        among colliding points the ``(point, owner)`` order makes the
        lexicographically smallest owner win — deterministically,
        independent of add/remove history. Colliding points share a
        bucket, so bisecting the key's bucket alone finds the same index
        as bisecting the whole ring; past the bucket's last point it
        stops at the next bucket's first. The key is hashed and the
        index read inline (a frame per lookup shows on the ladder);
        :func:`_hash32` is the same hash, kept for the virtual nodes'
        off-path points.
        """
        points = self._points
        if not points:
            raise ClusterError("hash ring is empty")
        point = int.from_bytes(md5(str(key).encode("utf-8")).digest()[:4], "big")
        starts = self._starts
        b = point >> self._shift
        idx = bisect_left(points, point, starts[b], starts[b + 1])
        if idx == len(points):
            idx = 0
        return self._owners[idx]

    # ------------------------------------------------------------- replicas

    def _successor_table(self, r: int) -> list[tuple[str, ...]]:
        """``table[i]`` = the first ``r`` distinct owners at/after point ``i``.

        Built once per (membership epoch, ``r``) and then shared by every
        :meth:`lookup_replicas` call: the amortized replica lookup is one
        bisect plus a tuple fetch instead of an O(r · collisions) ring
        walk per key. The build itself walks forward from each point with
        a small seen-set — with balanced virtual nodes the expected walk
        is a few steps (partial coupon collecting over the server set).
        """
        owners = self._owners
        n = len(owners)
        table: list[tuple[str, ...]] = [()] * n
        for i in range(n):
            picked: list[str] = []
            seen: set[str] = set()
            j = i
            for _ in range(n):
                owner = owners[j]
                if owner not in seen:
                    seen.add(owner)
                    picked.append(owner)
                    if len(picked) == r:
                        break
                j += 1
                if j == n:
                    j = 0
            table[i] = tuple(picked)
        self._successors[r] = table
        return table

    def lookup_replicas(self, key: Hashable, r: int) -> tuple[str, ...]:
        """The ``r`` distinct servers holding ``key``'s replica set.

        Walks the ring from the key's hash, collecting the first ``r``
        *distinct* owners in point order — ``result[0]`` is always
        :meth:`server_for`'s primary owner, so an unreplicated lookup is
        the degenerate ``r=1`` case. When fewer than ``r`` servers exist
        the whole membership is returned (capped, never padded); the
        distinct-owner guarantee means a replica set never places two
        copies on one shard regardless of virtual-point collisions.
        """
        if r < 1:
            raise ConfigurationError("replica count must be >= 1")
        points = self._points
        if not points:
            raise ClusterError("hash ring is empty")
        r = min(r, len(self._servers))
        table = self._successors.get(r)
        if table is None:
            table = self._successor_table(r)
        point = int.from_bytes(md5(str(key).encode("utf-8")).digest()[:4], "big")
        starts = self._starts
        b = point >> self._shift
        idx = bisect_left(points, point, starts[b], starts[b + 1])
        if idx == len(points):
            idx = 0
        return table[idx]

    def assignment(self, keys: Iterable[Hashable]) -> dict[str, list[Hashable]]:
        """Group ``keys`` by owning server (analysis helper)."""
        result: dict[str, list[Hashable]] = {server: [] for server in self._servers}
        for key in keys:
            result[self.server_for(key)].append(key)
        return result

    def key_count_balance(self, keys: Sequence[Hashable]) -> float:
        """max/min of per-server *key counts* — the balance consistent
        hashing does provide (contrast with workload imbalance)."""
        assignment = self.assignment(keys)
        counts = [len(bucket) for bucket in assignment.values()]
        low = min(counts)
        return max(counts) / max(low, 1)
