"""Failure/churn injection: the cluster changes under running front ends.

The paper deploys CoT in cloud environments where "cloud instance
migration is the norm"; these tests drive front ends while back-end
shards join and leave, checking that the client-driven protocol and the
elastic controller keep functioning (no crashes, no stale routing, data
still correct from storage).
"""

from __future__ import annotations

import random


from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.core.cache import CoTCache
from repro.core.elastic import ElasticCoTClient
from repro.policies.lru import LRUCache
from repro.workloads.base import format_key
from repro.workloads.zipfian import ZipfianGenerator


def small_cluster(n=4):
    return CacheCluster(num_servers=n, virtual_nodes=256, value_size=1)


class TestScaleOut:
    def test_lookup_continues_after_server_added(self):
        cluster = small_cluster()
        client = FrontEndClient(cluster, LRUCache(8))
        generator = ZipfianGenerator(2_000, theta=1.0, seed=1)
        for key in generator.keys(500):
            client.get(format_key(key))
        added = cluster.add_server()
        for key in generator.keys(500):
            client.get(format_key(key))
        # The new shard received some of the traffic...
        assert added.stats.gets > 0
        # ...and the monitor learned about it on the fly.
        assert added.server_id in client.monitor.total_loads()

    def test_values_correct_across_rebalance(self):
        """Keys that moved shards are refetched from storage, not lost."""
        cluster = small_cluster()
        client = FrontEndClient(cluster, LRUCache(4))
        keys = [format_key(i) for i in range(100)]
        expected = {key: client.get(key) for key in keys}
        cluster.add_server()
        for key in keys:
            client.policy.invalidate(key)  # force re-resolution via ring
            assert client.get(key) == expected[key]

    def test_elastic_client_survives_scale_out(self):
        cluster = small_cluster()
        client = ElasticCoTClient(cluster, target_imbalance=1.2, base_epoch=200)
        generator = ZipfianGenerator(2_000, theta=1.3, seed=2)
        for key in generator.keys(2_000):
            client.get(format_key(key))
        cluster.add_server()
        for key in generator.keys(4_000):
            client.get(format_key(key))
        assert client.epoch_index > 0
        client.cot.check_invariants()


class TestScaleIn:
    def test_lookup_continues_after_server_removed(self):
        cluster = small_cluster()
        client = FrontEndClient(cluster, LRUCache(8))
        generator = ZipfianGenerator(2_000, theta=1.0, seed=3)
        for key in generator.keys(500):
            client.get(format_key(key))
        removed_id = cluster.server_ids[0]
        cluster.remove_server(removed_id)
        for key in generator.keys(500):
            value = client.get(format_key(key))
            assert value is not None
        # No lookup routed to the departed shard after removal.
        assert removed_id not in {
            cluster.ring.server_for(format_key(k)) for k in range(200)
        }

    def test_orphaned_keys_served_from_storage(self):
        """Keys whose shard left are cache-layer misses served by storage
        and re-cached on their new shard."""
        cluster = small_cluster()
        client = FrontEndClient(cluster, LRUCache(1))
        key = format_key(7)
        value = client.get(key)
        owner = cluster.ring.server_for(key)
        cluster.remove_server(owner)
        client.policy.invalidate(key)
        assert client.get(key) == value
        new_owner = cluster.server_for(key)
        assert key in new_owner


class TestChurnStress:
    def test_random_churn_never_corrupts(self):
        rng = random.Random(17)
        cluster = small_cluster(3)
        clients = [
            FrontEndClient(cluster, CoTCache(8, tracker_capacity=32),
                           client_id=f"c{i}")
            for i in range(2)
        ]
        generator = ZipfianGenerator(1_000, theta=1.1, seed=4)
        for step in range(3_000):
            client = clients[step % 2]
            key = format_key(generator.next_key())
            roll = rng.random()
            if roll < 0.9:
                client.get(key)
            elif roll < 0.98:
                client.set(key, ("w", step))
            elif roll < 0.99 and len(cluster.server_ids) < 6:
                cluster.add_server()
            elif len(cluster.server_ids) > 2:
                cluster.remove_server(rng.choice(cluster.server_ids))
        for client in clients:
            client.policy.check_invariants()
        # Reads still observe authoritative data everywhere.
        for key_id in range(20):
            key = format_key(key_id)
            for client in clients:
                client.policy.invalidate(key)
            values = {repr(client.get(key)) for client in clients}
            assert len(values) == 1
