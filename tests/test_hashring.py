"""Tests for the consistent hash ring."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.hashring import ConsistentHashRing
from repro.errors import ClusterError, ConfigurationError
from repro.workloads.base import format_key

SERVERS = [f"s{i}" for i in range(8)]


class TestBasics:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(virtual_nodes=0)

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(ClusterError):
            ConsistentHashRing().server_for("k")

    def test_membership(self):
        ring = ConsistentHashRing(SERVERS)
        assert len(ring) == 8
        assert "s0" in ring and "missing" not in ring
        assert ring.servers == frozenset(SERVERS)

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ClusterError):
            ring.add_server("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ClusterError):
            ConsistentHashRing(["a"]).remove_server("b")

    def test_deterministic_mapping(self):
        a = ConsistentHashRing(SERVERS)
        b = ConsistentHashRing(SERVERS)
        keys = [format_key(i) for i in range(500)]
        assert [a.server_for(k) for k in keys] == [b.server_for(k) for k in keys]

    def test_all_servers_receive_keys(self):
        ring = ConsistentHashRing(SERVERS, virtual_nodes=160)
        keys = [format_key(i) for i in range(5000)]
        assignment = ring.assignment(keys)
        assert all(len(bucket) > 0 for bucket in assignment.values())

    def test_key_count_balance_improves_with_vnodes(self):
        keys = [format_key(i) for i in range(20_000)]
        coarse = ConsistentHashRing(SERVERS, virtual_nodes=8)
        fine = ConsistentHashRing(SERVERS, virtual_nodes=2048)
        assert fine.key_count_balance(keys) < coarse.key_count_balance(keys)

    def test_fine_ring_near_even(self):
        keys = [format_key(i) for i in range(50_000)]
        ring = ConsistentHashRing(SERVERS, virtual_nodes=8192)
        assert ring.key_count_balance(keys) < 1.1


class TestChurn:
    def test_remove_only_moves_removed_servers_keys(self):
        """Consistent hashing's minimal-churn property: removing a server
        must not remap keys owned by other servers."""
        ring = ConsistentHashRing(SERVERS)
        keys = [format_key(i) for i in range(3000)]
        before = {k: ring.server_for(k) for k in keys}
        ring.remove_server("s3")
        for key, owner in before.items():
            if owner != "s3":
                assert ring.server_for(key) == owner
            else:
                assert ring.server_for(key) != "s3"

    def test_add_only_steals_keys(self):
        """Adding a server must only move keys *to* the new server."""
        ring = ConsistentHashRing(SERVERS)
        keys = [format_key(i) for i in range(3000)]
        before = {k: ring.server_for(k) for k in keys}
        ring.add_server("s-new")
        for key, owner in before.items():
            after = ring.server_for(key)
            assert after in (owner, "s-new")

    def test_add_remove_roundtrip_restores_mapping(self):
        ring = ConsistentHashRing(SERVERS)
        keys = [format_key(i) for i in range(1000)]
        before = [ring.server_for(k) for k in keys]
        ring.add_server("temp")
        ring.remove_server("temp")
        assert [ring.server_for(k) for k in keys] == before

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.sampled_from(SERVERS), min_size=1), st.integers(0, 10_000))
    def test_lookup_total_over_any_subset(self, subset, key_id):
        ring = ConsistentHashRing(sorted(subset))
        owner = ring.server_for(format_key(key_id))
        assert owner in subset


class TestCollisionDeterminism:
    """32-bit point collisions must resolve by owner id, never by
    insertion order — ring ownership is a pure function of the member
    set (regression: ``add_server`` used to keep insertion order among
    equal points)."""

    @staticmethod
    def _colliding_hash(data: str) -> int:
        # Every virtual node ("name#replica") collides on one point; keys
        # never reach this hash, the lookups hash them by MD5 inline.
        return 100

    def test_equal_points_resolve_by_owner_id(self, monkeypatch):
        from repro.cluster import hashring as hashring_module

        monkeypatch.setattr(hashring_module, "_hash32", self._colliding_hash)
        forward = ConsistentHashRing(["alpha", "beta"], virtual_nodes=4)
        reverse = ConsistentHashRing(["beta", "alpha"], virtual_nodes=4)
        # Both orders agree, and the smallest owner id wins the collision.
        assert forward.server_for("some-key") == "alpha"
        assert reverse.server_for("some-key") == "alpha"

    def test_key_hash_equal_to_point_owns_at_or_after(self, monkeypatch):
        from repro.cluster import hashring as hashring_module

        # Keys hash by MD5 inline, so the shared point is the key's real
        # MD5 point; "gamma" sits one past it, where an "after" lookup
        # (bisect_right) would land.
        on_point = hashring_module._hash32("key-on-point")

        def placed(data: str) -> int:
            return on_point + 1 if data.startswith("gamma#") else on_point

        monkeypatch.setattr(hashring_module, "_hash32", placed)
        ring = ConsistentHashRing(["gamma", "beta", "alpha"], virtual_nodes=2)
        assert on_point in ring._points
        # The key lands exactly on the shared point: "at or after" means
        # the point itself serves it, smallest owner first.
        assert ring.server_for("key-on-point") == "alpha"
        assert ring.lookup_replicas("key-on-point", 2) == ("alpha", "beta")

    def test_churned_ring_matches_fresh_ring(self):
        """A ring that saw arbitrary add/remove history must agree with a
        freshly built ring on every key."""
        churned = ConsistentHashRing(["s5", "s2"], virtual_nodes=64)
        churned.add_server("temp-a")
        churned.add_server("s0")
        churned.add_server("temp-b")
        churned.remove_server("temp-a")
        churned.add_server("s7")
        churned.remove_server("temp-b")
        fresh = ConsistentHashRing(["s0", "s2", "s5", "s7"], virtual_nodes=64)
        keys = [format_key(i) for i in range(5_000)]
        assert [churned.server_for(k) for k in keys] == [
            fresh.server_for(k) for k in keys
        ]

    def test_build_order_never_matters(self):
        import itertools

        keys = [format_key(i) for i in range(500)]
        members = ["s0", "s1", "s2"]
        mappings = []
        for order in itertools.permutations(members):
            ring = ConsistentHashRing(order, virtual_nodes=32)
            mappings.append(tuple(ring.server_for(k) for k in keys))
        assert len(set(mappings)) == 1


def naive_replicas(ring: ConsistentHashRing, key, r: int) -> tuple[str, ...]:
    """Reference implementation: per-call ring walk, no successor table."""
    import bisect

    from repro.cluster.hashring import _hash32

    points, owners = ring._points, ring._owners
    idx = bisect.bisect_left(points, _hash32(str(key)))
    seen: list[str] = []
    for step in range(len(points)):
        owner = owners[(idx + step) % len(points)]
        if owner not in seen:
            seen.append(owner)
            if len(seen) == r:
                break
    return tuple(seen)


class TestReplicaLookup:
    """``lookup_replicas`` — the hot-key tier's placement primitive."""

    def test_validation(self):
        ring = ConsistentHashRing(SERVERS)
        with pytest.raises(ConfigurationError):
            ring.lookup_replicas("k", 0)
        with pytest.raises(ClusterError):
            ConsistentHashRing().lookup_replicas("k", 2)

    def test_primary_first_matches_server_for(self):
        ring = ConsistentHashRing(SERVERS)
        for i in range(2000):
            key = format_key(i)
            assert ring.lookup_replicas(key, 3)[0] == ring.server_for(key)

    def test_owners_always_distinct(self):
        ring = ConsistentHashRing(SERVERS, virtual_nodes=64)
        for i in range(2000):
            replicas = ring.lookup_replicas(format_key(i), 4)
            assert len(replicas) == 4
            assert len(set(replicas)) == 4

    def test_r_capped_at_membership_never_padded(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        replicas = ring.lookup_replicas("k", 10)
        assert sorted(replicas) == ["a", "b", "c"]
        assert ring.lookup_replicas("k", 1) == (ring.server_for("k"),)

    def test_table_matches_naive_walk(self):
        ring = ConsistentHashRing(SERVERS, virtual_nodes=128)
        for i in range(1000):
            key = format_key(i)
            for r in (1, 2, 3, 8):
                assert ring.lookup_replicas(key, r) == naive_replicas(
                    ring, key, r
                )

    def test_distinct_owners_on_collision_heavy_ring(self, monkeypatch):
        """Many virtual points share one 32-bit hash: the walk must still
        deliver r *distinct* owners, never two copies on one shard."""
        from repro.cluster import hashring as hashring_module

        monkeypatch.setattr(
            hashring_module, "_hash32", lambda data: (len(data) * 7) % 13
        )
        ring = ConsistentHashRing(SERVERS, virtual_nodes=16)
        for i in range(200):
            key = format_key(i)
            replicas = ring.lookup_replicas(key, 3)
            assert len(set(replicas)) == 3
            assert replicas == naive_replicas(ring, key, 3)
            assert replicas[0] == ring.server_for(key)

    def test_membership_change_invalidates_successor_table(self):
        churned = ConsistentHashRing(SERVERS, virtual_nodes=64)
        keys = [format_key(i) for i in range(500)]
        for key in keys:
            churned.lookup_replicas(key, 3)  # warm the r=3 table
        epoch = churned.epoch
        churned.add_server("s-new")
        churned.remove_server("s0")
        assert churned.epoch > epoch
        fresh = ConsistentHashRing(
            sorted(churned.servers), virtual_nodes=64
        )
        assert [churned.lookup_replicas(k, 3) for k in keys] == [
            fresh.lookup_replicas(k, 3) for k in keys
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.sampled_from(SERVERS), min_size=1),
        st.integers(0, 10_000),
        st.integers(1, 8),
    )
    def test_replica_sets_total_over_any_subset(self, subset, key_id, r):
        ring = ConsistentHashRing(sorted(subset), virtual_nodes=32)
        replicas = ring.lookup_replicas(format_key(key_id), r)
        assert len(replicas) == min(r, len(subset))
        assert len(set(replicas)) == len(replicas)
        assert set(replicas) <= subset
        assert replicas == naive_replicas(ring, format_key(key_id), r)


def _few_points(data: str) -> int:
    """A hash with 61 values: virtual nodes collide across and within servers."""
    import zlib

    return zlib.crc32(data.encode("utf-8")) % 61


POOL = [f"s{i}" for i in range(12)]


class TestOneSortMemoisedBuild:
    """A ring is one sort of every point, memoised per member set: the
    one-pass build, an ``add_server`` history, a memo hit and a
    ``remove_server`` rebuild must agree point for point and bucket for
    bucket, and a memo hit shares lists no churn may mutate."""

    @staticmethod
    def _ring(members, vnodes, fresh=True):
        from repro.cluster import hashring as hashring_module

        if fresh:
            hashring_module._RING_MEMO.clear()
        return ConsistentHashRing(members, virtual_nodes=vnodes)

    @pytest.mark.parametrize("hash32", ["md5", "few-points"])
    @settings(max_examples=30, deadline=None)
    @given(
        members=st.lists(st.sampled_from(POOL), min_size=1, unique=True),
        history=st.lists(st.tuples(st.booleans(), st.sampled_from(POOL)), max_size=8),
        vnodes=st.integers(1, 24),
    )
    def test_every_build_agrees(self, hash32, members, history, vnodes):
        from unittest import mock

        from repro.cluster import hashring as hashring_module

        patched = _few_points if hash32 == "few-points" else hashring_module._hash32
        self._ring(members, vnodes)  # an MD5 entry a substituted hash must miss
        with mock.patch.object(hashring_module, "_hash32", patched):
            churned = self._ring(members, vnodes, fresh=False)
            for add, server in history:
                if add and server not in churned:
                    hashring_module._RING_MEMO.clear()  # price add_server's merge
                    churned.add_server(server)
                elif not add and server in churned and len(churned) > 1:
                    churned.remove_server(server)
            final = sorted(churned.servers)
            added = self._ring((), vnodes)
            for server in final:
                hashring_module._RING_MEMO.clear()
                added.add_server(server)
            removed = self._ring(final + ["extra"], vnodes)
            removed.remove_server("extra")
            one_pass = self._ring(final[::-1], vnodes)
            memo_hit = self._ring(final, vnodes, fresh=False)
            assert memo_hit._points is one_pass._points
            for ring in (churned, added, memo_hit, removed):
                assert ring._points == one_pass._points
                assert ring._owners == one_pass._owners
                assert ring._shift == one_pass._shift
                assert ring._starts == one_pass._starts
            assert one_pass.epoch == len(final)

    @pytest.mark.parametrize("hash32", ["md5", "few-points"])
    @settings(max_examples=30, deadline=None)
    @given(
        members=st.lists(st.sampled_from(POOL), min_size=2, unique=True),
        history=st.lists(
            st.tuples(st.booleans(), st.sampled_from(POOL)), min_size=1, max_size=8
        ),
    )
    def test_churn_leaves_memo_siblings_alone(self, hash32, members, history):
        from unittest import mock

        from repro.cluster import hashring as hashring_module

        patched = _few_points if hash32 == "few-points" else hashring_module._hash32
        with mock.patch.object(hashring_module, "_hash32", patched):
            churned = self._ring(members, 8)
            sibling = self._ring(members, 8, fresh=False)
            assert sibling._points is churned._points
            points, owners = list(sibling._points), list(sibling._owners)
            for add, server in history:
                if add and server not in churned:
                    churned.add_server(server)
                elif not add and server in churned and len(churned) > 1:
                    churned.remove_server(server)
            assert sibling._points == points and sibling._owners == owners
            assert self._ring(members, 8, fresh=False)._points == points

    def test_duplicate_member_rejected_and_memo_bounded(self):
        from repro.cluster import hashring as hashring_module

        with pytest.raises(ClusterError):
            ConsistentHashRing(["a", "b", "a"])
        for size in range(1, 3 * hashring_module._RING_MEMO_SIZE):
            ConsistentHashRing(POOL[: size % len(POOL) + 1], virtual_nodes=size)
        assert len(hashring_module._RING_MEMO) <= hashring_module._RING_MEMO_SIZE


class _Digest:
    """An MD5 stand-in's result: a chosen 4-byte point, zero-padded."""

    def __init__(self, point: int) -> None:
        self._digest = point.to_bytes(4, "big") + bytes(12)

    def digest(self) -> bytes:
        return self._digest


def _churned_ring() -> ConsistentHashRing:
    ring = ConsistentHashRing(["s0", "s1", "s2"], virtual_nodes=64)
    ring.add_server("s3")
    ring.remove_server("s1")
    ring.add_server("s5")
    ring.remove_server("s0")  # the last index comes from remove_server's rebuild
    return ring


BOUNDARY_RINGS = {
    "one-point": lambda: ConsistentHashRing(["s0"], virtual_nodes=1),
    "2x128": lambda: ConsistentHashRing(SERVERS[:2], virtual_nodes=128),
    "8x8192": lambda: ConsistentHashRing(SERVERS, virtual_nodes=8192),
    "churned": _churned_ring,
}


class TestBucketIndex:
    """A lookup bisects only the key's bucket of the index; at every bucket
    edge and every virtual point it must agree with a bisect of the whole
    ring."""

    @staticmethod
    def _probes(ring: ConsistentHashRing) -> list[int]:
        top = (1 << 32) - 1
        probes = {0, top}
        for b in range(len(ring._starts) - 1):
            probes.update((b << ring._shift) + d for d in (-1, 0, 1))
        for point in ring._points:
            probes.update((point - 1, point, point + 1))
        return sorted(p for p in probes if 0 <= p <= top)

    @pytest.mark.parametrize("name", sorted(BOUNDARY_RINGS))
    def test_bucket_bisect_matches_whole_ring(self, name, monkeypatch):
        import bisect

        from repro.cluster import hashring as hashring_module

        ring = BOUNDARY_RINGS[name]()
        points, owners = ring._points, ring._owners
        n = len(points)
        assert ring._starts[0] == 0 and ring._starts[-1] == n
        probes = self._probes(ring)
        # Only the probe keys are hashed from here on: each one's MD5 is
        # its chosen point.
        digests = {f"pt:{p}".encode(): _Digest(p) for p in probes}
        monkeypatch.setattr(hashring_module, "md5", digests.__getitem__)
        walks: dict[int, tuple[str, ...]] = {}
        for point in probes:
            key = f"pt:{point}"
            idx = bisect.bisect_left(points, point) % n
            assert ring.server_for(key) == owners[idx], point
            walk = walks.get(idx)
            if walk is None:
                walk = walks[idx] = naive_replicas(ring, key, 3)
            for r in (1, 2, 3):
                assert ring.lookup_replicas(key, r) == walk[:r], (point, r)


class TestFastMD5:
    @settings(max_examples=200, deadline=None)
    @example("")
    @example("ключ-ü-🔑")
    @example(0)
    @given(st.one_of(st.text(), st.integers()))
    def test_digest_matches_hashlib(self, key):
        import hashlib

        from repro.cluster import hashring as hashring_module

        data = str(key).encode("utf-8")
        assert hashring_module.md5(data).digest() == hashlib.md5(data).digest()
