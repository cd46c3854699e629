"""Tests for back-end shards, storage, load monitoring, and assembly."""

from __future__ import annotations

import pytest

from repro.cluster.backend import BackendCacheServer
from repro.cluster.cluster import CacheCluster
from repro.cluster.loadmonitor import LoadMonitor, load_imbalance, noise_allowance
from repro.cluster.storage import PersistentStore
from repro.errors import ClusterError, ConfigurationError
from repro.policies.base import MISSING


class TestBackendServer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackendCacheServer("s", capacity_bytes=0)

    def test_get_set_delete(self):
        server = BackendCacheServer("s", capacity_bytes=10_000, default_value_size=10)
        assert server.get("k") is MISSING
        server.set("k", "v")
        assert server.get("k") == "v"
        assert server.delete("k") is True
        assert server.delete("k") is False
        assert server.get("k") is MISSING

    def test_stats(self):
        server = BackendCacheServer("s", capacity_bytes=10_000, default_value_size=10)
        server.get("a")
        server.set("a", 1)
        server.get("a")
        assert server.stats.gets == 2
        assert server.stats.get_hits == 1
        assert server.stats.get_hit_rate == 0.5
        assert server.stats.sets == 1

    def test_byte_budget_evicts_lru(self):
        server = BackendCacheServer("s", capacity_bytes=30, default_value_size=10)
        server.set("a", 1)
        server.set("b", 2)
        server.set("c", 3)
        server.get("a")           # refresh a
        server.set("d", 4)        # evicts b (LRU)
        assert "b" not in server
        assert "a" in server and "c" in server and "d" in server
        assert server.stats.evictions == 1
        assert server.bytes_used <= 30

    def test_explicit_size_accounting(self):
        server = BackendCacheServer("s", capacity_bytes=100, default_value_size=10)
        server.set("big", 1, size=60)
        server.set("small", 2, size=10)
        assert server.bytes_used == 70
        server.set("big", 3, size=20)  # replacing updates accounting
        assert server.bytes_used == 30

    def test_oversized_value_clamped(self):
        server = BackendCacheServer("s", capacity_bytes=50, default_value_size=10)
        server.set("huge", 1, size=500)
        assert "huge" in server
        assert server.bytes_used <= 50

    def test_epoch_window(self):
        server = BackendCacheServer("s", capacity_bytes=100)
        server.get("a")
        assert server.stats.epoch_gets == 1
        server.stats.reset_epoch()
        assert server.stats.epoch_gets == 0
        assert server.stats.gets == 1

    def test_flush(self):
        server = BackendCacheServer("s", capacity_bytes=100, default_value_size=10)
        server.set("a", 1)
        server.flush()
        assert len(server) == 0
        assert server.bytes_used == 0


class TestStorage:
    def test_lazy_values(self):
        store = PersistentStore()
        value = store.get("never-written")
        assert value is not None
        assert store.stats.reads == 1

    def test_write_read(self):
        store = PersistentStore()
        store.set("k", "v")
        assert store.get("k") == "v"
        assert store.was_written("k")

    def test_delete(self):
        store = PersistentStore()
        store.set("k", "v")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert not store.was_written("k")
        # Reads after delete regenerate a factory value.
        assert store.get("k") is not None

    def test_custom_factory(self):
        store = PersistentStore(value_factory=lambda key: f"gen-{key}")
        assert store.get("x") == "gen-x"


class TestLoadMonitor:
    def test_requires_servers(self):
        with pytest.raises(ClusterError):
            LoadMonitor([])

    def test_new_server_auto_registered(self):
        """Topology churn: lookups to servers that joined after the
        monitor was built are counted, not rejected."""
        monitor = LoadMonitor(["a"])
        monitor.record_lookup("b")
        assert monitor.total_loads() == {"a": 0, "b": 1}

    def test_counters_and_imbalance(self):
        monitor = LoadMonitor(["a", "b"])
        for _ in range(6):
            monitor.record_lookup("a")
        for _ in range(2):
            monitor.record_lookup("b")
        assert monitor.total_loads() == {"a": 6, "b": 2}
        assert monitor.imbalance() == 3.0
        assert monitor.total_lookups() == 8

    def test_epoch_window_independent(self):
        monitor = LoadMonitor(["a", "b"])
        monitor.record_lookup("a")
        monitor.reset_epoch()
        monitor.record_lookup("b")
        assert monitor.epoch_loads() == {"a": 0, "b": 1}
        assert monitor.total_loads() == {"a": 1, "b": 1}
        assert monitor.epoch_imbalance() == 1.0

    def test_reset(self):
        monitor = LoadMonitor(["a"])
        monitor.record_lookup("a")
        monitor.reset()
        assert monitor.total_lookups() == 0

    def test_forgotten_server_reincarnates_as_fresh_joiner(self):
        """Regression (scale-in churn): after ``forget_server`` a later
        lookup under the same id must register as a *mid-epoch joiner*,
        not splice onto the dead incarnation's counts — the controller
        excludes fresh joiners, so a remove→add inside one epoch cannot
        double-count."""
        monitor = LoadMonitor(["a", "b"])
        for _ in range(5):
            monitor.record_lookup("b")
        monitor.forget_server("b")
        assert "b" not in monitor.total_loads()
        assert "b" not in monitor.epoch_loads()
        monitor.record_lookup("b")
        assert "b" in monitor.epoch_new_servers()
        assert monitor.epoch_loads()["b"] == 1
        assert monitor.total_loads()["b"] == 1
        # A full epoch boundary graduates the reincarnation to a
        # first-class member, exactly like any scale-out joiner.
        monitor.reset_epoch()
        assert "b" not in monitor.epoch_new_servers()


class TestLoadImbalanceMetric:
    def test_empty(self):
        assert load_imbalance({}) == 1.0
        assert load_imbalance([]) == 1.0

    def test_all_zero(self):
        assert load_imbalance({"a": 0, "b": 0}) == 1.0

    def test_zero_floor(self):
        assert load_imbalance({"a": 10, "b": 0}) == 10.0

    def test_mapping_and_iterable(self):
        assert load_imbalance({"a": 4, "b": 2}) == 2.0
        assert load_imbalance([4, 2]) == 2.0


class TestNoiseAllowance:
    def test_trusts_empty_sample_and_single_shard(self):
        assert noise_allowance(0, 8) == 1.0
        assert noise_allowance(-5, 8) == 1.0
        assert noise_allowance(1_000, 1) == 1.0

    def test_three_sigma_of_balanced_spread(self):
        assert noise_allowance(800, 9) == pytest.approx(1.32)
        # It vanishes at paper scale.
        assert noise_allowance(1_000_000, 8) < 1.01


class TestCacheCluster:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CacheCluster(num_servers=0)

    def test_assembly(self):
        cluster = CacheCluster(num_servers=4, virtual_nodes=64)
        assert len(cluster.server_ids) == 4
        assert cluster.server("cache-0").server_id == "cache-0"
        with pytest.raises(ClusterError):
            cluster.server("nope")

    def test_routing_is_ring_consistent(self):
        cluster = CacheCluster(num_servers=4, virtual_nodes=64)
        for key in ("a", "b", "c"):
            assert cluster.server_for(key).server_id == cluster.ring.server_for(key)

    def test_loads_and_imbalance(self):
        cluster = CacheCluster(num_servers=2, virtual_nodes=64)
        server = cluster.server("cache-0")
        server.get("k")
        loads = cluster.loads()
        assert loads["cache-0"] == 1
        assert cluster.total_lookups() == 1
        assert cluster.imbalance() == 1.0  # floor keeps it finite

    def test_add_remove_server(self):
        cluster = CacheCluster(num_servers=2, virtual_nodes=64)
        added = cluster.add_server()
        assert added.server_id in cluster.server_ids
        assert added.server_id in cluster.ring
        cluster.remove_server(added.server_id)
        assert added.server_id not in cluster.server_ids

    def test_cannot_remove_last(self):
        cluster = CacheCluster(num_servers=1, virtual_nodes=64)
        with pytest.raises(ClusterError):
            cluster.remove_server("cache-0")

    def test_shard_ids_are_never_reused_after_scale_in(self):
        """Regression: ``add_server`` named shards by the current member
        count, so remove ``cache-3`` on a 4-shard cluster then add →
        ``cache-3`` again — and every per-shard structure keyed on the id
        (breakers, fault profiles, load windows) silently adopted the
        dead incarnation's state. Ids now come from a monotonic mint."""
        cluster = CacheCluster(num_servers=4, virtual_nodes=64)
        cluster.remove_server("cache-3")
        added = cluster.add_server()
        assert added.server_id == "cache-4"
        # And again, including removing an *interior* id.
        cluster.remove_server("cache-1")
        assert cluster.add_server().server_id == "cache-5"
        assert len(set(cluster.server_ids)) == len(cluster.server_ids)
        # A fresh shard starts with no cached keys.
        assert not list(added.keys())

    def test_remove_purges_rehomed_copies_from_survivors(self):
        """Regression (scale-in staleness): removing a shard hands its
        key range back to ring survivors, and a survivor may still hold
        a copy from an earlier ownership stint that missed every
        invalidation since. Those copies are purged at removal."""
        cluster = CacheCluster(num_servers=3, virtual_nodes=64)
        victim = "cache-1"
        key = next(
            f"key-{i}"
            for i in range(1000)
            if cluster.ring.server_for(f"key-{i}") == victim
        )
        survivor = next(
            sid for sid in cluster.server_ids if sid != victim
        )
        # Plant a stale copy on the survivor (as an earlier ownership
        # stint would have left behind).
        cluster.server(survivor).set(key, "stale-old-copy")
        cluster.remove_server(victim)
        assert key not in cluster.server(survivor)

    def test_remove_notifies_removal_listeners(self):
        cluster = CacheCluster(num_servers=3, virtual_nodes=64)
        seen: list[str] = []
        cluster.removal_listeners.append(seen.append)
        cluster.remove_server("cache-2")
        assert seen == ["cache-2"]

    def test_epoch_reset_propagates(self):
        cluster = CacheCluster(num_servers=2, virtual_nodes=64)
        cluster.server("cache-0").get("k")
        cluster.reset_epoch()
        assert cluster.epoch_loads() == {"cache-0": 0, "cache-1": 0}

    def test_flush(self):
        cluster = CacheCluster(num_servers=2, virtual_nodes=64)
        cluster.server("cache-0").set("k", 1)
        cluster.flush()
        assert "k" not in cluster.server("cache-0")
