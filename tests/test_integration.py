"""Cross-module integration tests: the paper's claims at test scale."""

from __future__ import annotations

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.core.cache import CoTCache
from repro.metrics import load_imbalance
from repro.policies.registry import make_policy
from repro.workloads.base import format_key
from repro.workloads.mixer import OperationMixer
from repro.workloads.zipfian import ZipfianGenerator


def run_clients(cluster, policies, dist_theta, accesses_per_client, key_space, seed=0):
    clients = [
        FrontEndClient(cluster, policy, client_id=f"front-{i}")
        for i, policy in enumerate(policies)
    ]
    for i, client in enumerate(clients):
        generator = ZipfianGenerator(key_space, theta=dist_theta, seed=seed + i)
        for key in generator.keys(accesses_per_client):
            client.get(format_key(key))
    return clients


class TestPaperClaims:
    """Small-scale versions of the headline claims."""

    def test_small_front_end_cache_fixes_imbalance(self):
        """Fan et al.'s premise: a small front-end cache removes most of
        the back-end load-imbalance (Figure 3's mechanism)."""
        key_space, accesses = 10_000, 30_000
        bare = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        run_clients(bare, [make_policy("none", 0) for _ in range(2)],
                    1.5, accesses // 2, key_space)
        cached = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        run_clients(
            cached,
            [CoTCache(64, tracker_capacity=256) for _ in range(2)],
            1.5,
            accesses // 2,
            key_space,
        )
        assert load_imbalance(bare.loads()) > 2 * load_imbalance(cached.loads())

    def test_cot_needs_fewer_lines_than_lru_for_balance(self):
        """Table 2's mechanism at small scale: at equal (small) size, CoT
        yields lower back-end imbalance than LRU."""
        key_space, accesses, lines = 10_000, 40_000, 16
        results = {}
        for name in ("lru", "cot"):
            cluster = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
            run_clients(
                cluster,
                [make_policy(name, lines, tracker_capacity=8 * lines)
                 for _ in range(2)],
                1.2,
                accesses // 2,
                key_space,
            )
            results[name] = load_imbalance(cluster.loads())
        assert results["cot"] < results["lru"]

    def test_cache_hierarchy_consistency_under_writes(self):
        """After interleaved reads and writes through two front ends, a
        read must always observe the latest written value."""
        cluster = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        a = FrontEndClient(cluster, CoTCache(8, tracker_capacity=32), client_id="a")
        b = FrontEndClient(cluster, CoTCache(8, tracker_capacity=32), client_id="b")
        key = format_key(42)
        a.get(key)
        b.get(key)
        a.set(key, "from-a")
        # B's local copy was NOT invalidated (no cross-client invalidation
        # in the client-driven protocol) — but B's *next* miss path after
        # its own update sees the new value; B writing invalidates B.
        b.set(key, "from-b")
        assert a.get(key) == "from-b"
        assert b.get(key) == "from-b"

    def test_mixed_workload_runs_clean(self):
        """Tao-ratio mixed workload through the full stack."""
        cluster = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        client = FrontEndClient(cluster, CoTCache(32, tracker_capacity=128))
        mixer = OperationMixer(
            ZipfianGenerator(5_000, theta=1.2, seed=3),
            read_fraction=0.95,
            seed=4,
        )
        for request in mixer.requests(20_000):
            client.execute(request)
        client.policy.check_invariants()
        assert client.policy.stats.hit_rate > 0.2
        assert cluster.storage.stats.writes > 0

    def test_all_policies_agree_on_backend_content(self):
        """Different front-end policies must never corrupt the data: the
        value returned equals what storage holds."""
        cluster = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        policies = [
            make_policy(name, 8, tracker_capacity=32)
            for name in ("lru", "lfu", "arc", "lru2", "cot")
        ]
        clients = [
            FrontEndClient(cluster, policy, client_id=str(i))
            for i, policy in enumerate(policies)
        ]
        key = format_key(7)
        for client in clients:
            assert client.get(key) == cluster.storage.get(key)
        clients[0].set(key, "v2")
        for client in clients[1:]:
            client.policy.invalidate(key)  # simulate invalidation fan-out
        for client in clients:
            assert client.get(key) == "v2"


class TestEndToEndElasticity:
    def test_two_front_ends_converge_independently(self):
        """Decentralization: front ends serving different skews settle on
        different cache sizes with no coordination."""
        from repro.core.elastic import ElasticCoTClient
        from repro.workloads.uniform import UniformGenerator

        cluster = CacheCluster(num_servers=4, virtual_nodes=512, value_size=1)
        hot_client = ElasticCoTClient(
            cluster, target_imbalance=1.1, base_epoch=500, client_id="hot"
        )
        cold_client = ElasticCoTClient(
            cluster, target_imbalance=1.1, base_epoch=500, client_id="cold"
        )
        hot_gen = ZipfianGenerator(5_000, theta=1.4, seed=11)
        cold_gen = UniformGenerator(5_000, seed=12)
        for _ in range(60_000):
            hot_client.get(format_key(hot_gen.next_key()))
            cold_client.get(format_key(cold_gen.next_key()))
        hot_cache, _ = hot_client.converged_sizes()
        cold_cache, _ = cold_client.converged_sizes()
        assert hot_cache > cold_cache
