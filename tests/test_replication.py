"""Tests for the replicated hot-key tier (router, routing, coherence).

Covers the promotion/demotion protocol (epoch transitions, tracker-driven
refresh, hysteresis), power-of-two-choices routing (load spreading,
OPEN-breaker exclusion, primary fallback), write-fanout coherence
(quarantine on failed invalidation, cold-revival clearing), the engine's
replication axis, the ``ext-hotkey`` experiment's own verdict, and a
hypothesis state machine asserting zero stale reads under random
promote/demote/write/kill/revive interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector
from repro.cluster.replication import (
    HotKeyRouter,
    ReplicationConfig,
    tracker_report,
)
from repro.cluster.retry import (
    BreakerConfig,
    BreakerState,
    ClusterGuard,
)
from repro.core.cache import CoTCache
from repro.engine import (
    ArbitrationSpec,
    ClusterRunner,
    PolicySpec,
    Scale,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import extension_hotkey
from repro.policies.adaptive import AdaptiveArbiter
from repro.policies.base import MISSING
from repro.policies.lru import LRUCache


def make_cluster(n=8, seed=0):
    faults = FaultInjector(seed=seed)
    cluster = CacheCluster(
        num_servers=n, virtual_nodes=256, value_size=1, faults=faults
    )
    return cluster, faults


class StubTrackerPolicy:
    """A fake front end whose tracker reports a fixed heavy-hitter list."""

    def __init__(self, report):
        self.tracker = self
        self._report = list(report)

    def top(self, n):
        return self._report[:n]


def make_client(cluster, router=None, seed=1, policy=None, threshold=3,
                cooldown=1e9):
    guard = ClusterGuard(
        cluster.server_ids,
        max_attempts=2,
        breaker=BreakerConfig(failure_threshold=threshold, cooldown=cooldown),
    )
    client = FrontEndClient(
        cluster, policy if policy is not None else LRUCache(8), guard=guard
    )
    if router is not None:
        client.attach_router(router, seed=seed)
    return client


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(degree=0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(min_share=0.0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(refresh_every=0)


class TestPromotionProtocol:
    def test_promote_places_distinct_replicas_primary_first(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        replicas = router.promote("usertable:0")
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert replicas[0] == cluster.ring.server_for("usertable:0")
        assert router.is_replicated("usertable:0")
        assert router.replicas("usertable:0") == replicas

    def test_promote_is_idempotent_and_epochs_advance(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster)
        epoch0 = router.epoch
        first = router.promote("usertable:1")
        epoch1 = router.epoch
        assert epoch1 > epoch0
        assert router.promote("usertable:1") == first
        assert router.epoch == epoch1  # idempotent: no new epoch
        router.demote("usertable:1")
        assert router.epoch > epoch1
        assert not router.is_replicated("usertable:1")
        router.demote("usertable:1")  # idempotent demote

    def test_demote_invalidates_nonprimary_copies(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        key = "usertable:2"
        replicas = router.promote(key)
        for sid in replicas:
            cluster.server(sid).set(key, "copy")
        router.demote(key)
        primary = replicas[0]
        assert cluster.server(primary).get(key) == "copy"
        for sid in replicas[1:]:
            assert cluster.server(sid).get(key) is MISSING

    def test_demote_with_dead_replica_quarantines_it(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        key = "usertable:3"
        replicas = router.promote(key)
        victim = replicas[1]
        cluster.server(victim).set(key, "stale")
        cluster.kill_server(victim)
        router.demote(key)
        assert victim in router.pending_demotions(key)
        assert router.stats.failed_replica_invalidations == 1
        # the quarantined shard stays in write fan-out until the delete lands
        assert victim in router.write_targets(key)
        # cold revival wipes the shard and lifts the quarantine
        cluster.revive_server(victim, cold=True)
        assert not router.pending_demotions(key)
        assert router.write_targets(key) == ()

    def test_repromote_excludes_quarantined_shard_from_reads(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        key = "usertable:4"
        replicas = router.promote(key)
        victim = replicas[1]
        cluster.server(victim).set(key, "stale")
        cluster.kill_server(victim)
        router.demote(key)
        assert victim in router.pending_demotions(key)
        again = router.promote(key)
        assert again == replicas
        entry = router.routes[key]
        assert victim in entry.quarantine
        assert victim not in entry.eligible


class TestRefresh:
    def test_refresh_promotes_tracker_heavy_hitters(self):
        cluster, _ = make_cluster()
        storage = cluster.storage
        for i in range(64):
            storage.set(f"usertable:{i}", i)
        router = HotKeyRouter(
            cluster, ReplicationConfig(degree=3, min_share=0.3, top_n=8)
        )
        clients = [
            make_client(
                cluster, router, seed=i,
                policy=CoTCache(capacity=4, tracker_capacity=32),
            )
            for i in range(2)
        ]
        hot = "usertable:0"
        for _ in range(200):
            for c in clients:
                c.get(hot)
                c.policy.invalidate(hot)  # keep it missing locally
        for i in range(1, 32):
            clients[0].get(f"usertable:{i}")
        promoted, demoted = router.refresh(clients)
        assert hot in promoted
        assert router.is_replicated(hot)
        assert demoted == ()

    def test_refresh_demotes_cooled_keys(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(min_share=0.3))
        router.promote("usertable:99")
        clients = [
            make_client(
                cluster, router, seed=7,
                policy=CoTCache(capacity=4, tracker_capacity=32),
            )
        ]
        # the tracker reports entirely different keys; the stale promotion
        # has zero share and falls below the hysteresis floor
        for _ in range(50):
            clients[0].get("usertable:1")
        promoted, demoted = router.refresh(clients)
        assert "usertable:99" in demoted
        assert not router.is_replicated("usertable:99")

    def test_tracker_report_empty_for_untracked_policies(self):
        assert tracker_report(LRUCache(4), 8) == []

    def test_refresh_promotes_through_an_arbitrated_front_end(self):
        """An arbiter has no tracker of its own: it reports its live
        policy's, so a front end under arbitration still gets its hot
        keys replicated."""
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster)
        policy = AdaptiveArbiter(64, candidates=("cot",), tracker_capacity=256)
        client = make_client(cluster, router, policy=policy)
        for i in range(5_000):
            client.get("hot" if i % 3 == 0 else f"usertable:{i}")
        assert router.refresh([client]) == (("hot",), ())

    def test_refresh_respects_max_keys(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(min_share=0.01, max_keys=2, top_n=16),
        )
        client = make_client(
            cluster, router, policy=CoTCache(capacity=4, tracker_capacity=32)
        )
        for i in range(4):
            for _ in range(25):
                client.get(f"usertable:{i}")
                client.policy.invalidate(f"usertable:{i}")
        router.refresh([client])
        assert len(router) <= 2

    def test_incumbent_above_floor_outside_rank_window_is_kept(self):
        # Hysteresis must apply over the full ranked list: an incumbent
        # whose share is above the floor but ranks just outside the top
        # max_keys would otherwise flap promote/demote every epoch.
        cluster, _ = make_cluster()
        router = HotKeyRouter(
            cluster, ReplicationConfig(min_share=0.2, max_keys=2, top_n=16)
        )
        router.promote("usertable:C")
        # total=95: threshold=19, floor=9.5; C ranks 3rd with weight 15
        report = StubTrackerPolicy(
            [("usertable:A", 50.0), ("usertable:B", 30.0), ("usertable:C", 15.0)]
        )
        promoted, demoted = router.refresh([report])
        assert "usertable:C" not in demoted
        assert router.is_replicated("usertable:C")
        assert "usertable:A" in promoted
        # the cap still binds: C holds a slot, so only one promotion fits
        assert not router.is_replicated("usertable:B")
        assert len(router) == 2

    def test_max_keys_cap_demotes_coolest_incumbents(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(
            cluster, ReplicationConfig(min_share=0.2, max_keys=2, top_n=16)
        )
        for name in ("A", "B", "C"):
            router.promote(f"usertable:{name}")
        report = StubTrackerPolicy(
            [("usertable:A", 50.0), ("usertable:B", 30.0), ("usertable:C", 15.0)]
        )
        promoted, demoted = router.refresh([report])
        assert promoted == ()
        assert demoted == ("usertable:C",)
        assert router.is_replicated("usertable:A")
        assert router.is_replicated("usertable:B")


class TestTwoChoicesRouting:
    def test_replicated_reads_spread_across_replicas(self):
        cluster, _ = make_cluster()
        for i in range(8):
            cluster.storage.set(f"usertable:{i}", i)
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, policy=LRUCache(2))
        key = "usertable:0"
        replicas = router.promote(key)
        for _ in range(600):
            assert client.get(key) == 0
            client.policy.invalidate(key)  # force the backend path
        loads = client.monitor.total_loads()
        for sid in replicas:
            assert loads.get(sid, 0) > 100  # all three carry the key
        assert router.stats.replicated_reads == 600
        assert router.stats.two_choice_reads == 600

    def test_open_breaker_shard_never_chosen(self):
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, threshold=2, cooldown=1e9)
        key = "usertable:0"
        replicas = router.promote(key)
        victim = replicas[1]
        cluster.kill_server(victim)
        # drive until the victim's breaker trips (sampling is randomized)
        for _ in range(100):
            client.get(key)
            client.policy.invalidate(key)
        assert client.guard.state(victim) is BreakerState.OPEN
        before = client.monitor.total_loads().get(victim, 0)
        degraded_before = client.monitor.degraded_reads()
        for _ in range(200):
            assert client.get(key) == "v"
            client.policy.invalidate(key)
        assert client.monitor.total_loads().get(victim, 0) == before
        # the surviving replicas serve everything: no degraded reads
        assert client.monitor.degraded_reads() == degraded_before
        assert router.stats.primary_fallbacks == 0

    def test_all_replicas_down_degrades_to_storage(self):
        cluster, _ = make_cluster(n=3)
        cluster.storage.set("usertable:0", "auth")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, threshold=1, cooldown=1e9)
        key = "usertable:0"
        for sid in router.promote(key):
            cluster.kill_server(sid)
        values = {client.get(key) for _ in range(20)}
        for _ in range(20):
            client.policy.invalidate(key)
            values.add(client.get(key))
        assert values == {"auth"}
        assert router.stats.primary_fallbacks > 0

    def test_two_choice_reads_count_reads_with_two_live_replicas(self):
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, policy=LRUCache(2), threshold=1)
        key = "usertable:0"
        replicas = router.promote(key)
        stats = router.stats

        def reads(n):
            """(replicated, two-choice) reads over ``n`` backend reads."""
            before = stats.replicated_reads, stats.two_choice_reads
            for _ in range(n):
                assert client.get(key) == "v"
                client.policy.invalidate(key)
            return (
                stats.replicated_reads - before[0],
                stats.two_choice_reads - before[1],
            )

        assert reads(50) == (50, 50)  # three live replicas
        for victim, live in ((replicas[1], 2), (replicas[2], 1)):
            cluster.kill_server(victim)
            reads(100)  # until the victim's breaker opens
            assert client.guard.state(victim) is BreakerState.OPEN
            assert reads(50) == (50, 50 if live >= 2 else 0)
        cluster.kill_server(replicas[0])
        reads(100)
        assert reads(50) == (50, 0)  # every replica OPEN: primary fallback
        assert stats.primary_fallbacks > 0


class TestWriteFanout:
    def test_write_invalidates_every_replica(self):
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v1")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, policy=LRUCache(4))
        key = "usertable:0"
        replicas = router.promote(key)
        for sid in replicas:
            cluster.server(sid).set(key, "v1")
        client.set(key, "v2")
        for sid in replicas:
            assert cluster.server(sid).get(key) is MISSING
        assert router.stats.replica_invalidations >= 3

    def test_failed_fanout_quarantines_and_recovers(self):
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v1")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, threshold=1, cooldown=1e9)
        key = "usertable:0"
        replicas = router.promote(key)
        victim = replicas[1]
        cluster.server(victim).set(key, "v1")
        cluster.kill_server(victim)
        client.set(key, "v2")
        entry = router.routes[key]
        assert victim in entry.quarantine
        assert victim not in entry.eligible
        assert router.stats.failed_replica_invalidations >= 1
        # reads keep returning the new value (victim is out of the choice set)
        for _ in range(50):
            assert client.get(key) == "v2"
            client.policy.invalidate(key)
        # cold revival wipes the stale copy and restores eligibility
        cluster.revive_server(victim, cold=True)
        entry = router.routes[key]
        assert victim not in entry.quarantine
        assert victim in entry.eligible
        assert cluster.server(victim).get(key) is MISSING

    def test_landed_write_lifts_quarantine(self):
        """A later write whose delete lands on a quarantined shard clears
        the record, and the shard rejoins the read choice set."""
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router)
        key = "usertable:0"
        replicas = router.promote(key)
        router.quarantine(key, replicas[1])
        assert router.routes[key].eligible == (replicas[0], replicas[2])
        client.set(key, "v2")
        assert router.pending_demotions(key) == frozenset()
        assert router.routes[key].eligible == replicas

    def test_write_after_failed_demote_invalidates_primary(self):
        # Regression: a demoted key with an unresolved demotion-
        # invalidation reads through the classic path to the primary, so
        # the primary must be in the write-target set — otherwise
        # promote -> kill replica -> demote -> get -> set -> get serves
        # the pre-write value from the primary while storage holds the
        # new one.
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v1")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, threshold=1, cooldown=1e9)
        key = "usertable:0"
        replicas = router.promote(key)
        primary, victim = replicas[0], replicas[1]
        cluster.server(victim).set(key, "v1")
        cluster.kill_server(victim)
        router.demote(key)
        assert victim in router.pending_demotions(key)
        assert primary in router.write_targets(key)
        # classic-path read caches v1 on the primary
        assert client.get(key) == "v1"
        client.policy.invalidate(key)
        assert cluster.server(primary).get(key) == "v1"
        client.set(key, "v2")
        assert cluster.server(primary).get(key) is MISSING
        assert client.get(key) == "v2"

    def test_get_many_routes_replicated_keys_through_choice_set(self):
        cluster, _ = make_cluster()
        for i in range(16):
            cluster.storage.set(f"usertable:{i}", i)
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, policy=LRUCache(2))
        key = "usertable:0"
        replicas = router.promote(key)
        for _ in range(300):
            batch = client.get_many([key, "usertable:5", "usertable:9"])
            assert batch[key] == 0
            client.policy.invalidate(key)
        loads = client.monitor.total_loads()
        assert all(loads.get(sid, 0) > 50 for sid in replicas)


class TestListenerHygiene:
    def test_attach_router_registers_revival_hook_once(self):
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster)
        client = make_client(cluster)
        client.attach_router(router, seed=1)
        client.attach_router(router, seed=2)  # re-attach: no duplicate
        hook = client.monitor.reset_server_window
        assert cluster.cold_revival_listeners.count(hook) == 1


class TestScaleInSafety:
    def test_remove_replica_shard_reroutes_reads_immediately(self):
        """Regression: scaling in a shard that served in a promoted
        key's replica set left the stale placement in ``routes`` until
        the next refresh — any read that sampled the departed shard
        crashed on the cluster lookup. The removal listener re-places
        affected replica sets synchronously."""
        cluster, _ = make_cluster()
        router = HotKeyRouter(cluster, ReplicationConfig(degree=2))
        client = make_client(cluster, router, policy=LRUCache(2))
        key = "usertable:0"
        cluster.storage.set(key, "v")
        replicas = router.promote(key)
        victim = replicas[1]  # non-primary replica
        cluster.remove_server(victim)
        entry = router.routes[key]
        assert victim not in entry.replicas
        assert all(sid in cluster.server_ids for sid in entry.replicas)
        for _ in range(20):  # two-choices sampling must never crash
            assert client.get(key) == "v"
            client.policy.invalidate(key)

    def test_remove_clears_pending_and_quarantine_references(self):
        """A quarantined (key, shard) pair is moot once the shard leaves
        the cluster: its copies left with it."""
        cluster, _ = make_cluster()
        cluster.storage.set("usertable:0", "v1")
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        client = make_client(cluster, router, threshold=1, cooldown=1e9)
        key = "usertable:0"
        replicas = router.promote(key)
        victim = replicas[1]
        cluster.server(victim).set(key, "v1")
        cluster.kill_server(victim)
        client.set(key, "v2")  # failed fan-out quarantines the victim
        assert victim in router.routes[key].quarantine
        cluster.remove_server(victim)
        entry = router.routes[key]
        assert victim not in entry.replicas
        assert victim not in entry.quarantine
        assert victim not in router.pending_demotions(key)
        live = set(cluster.server_ids)
        for pending in router.pending_snapshot().values():
            assert pending <= live
        # Reads keep serving the committed value through the new set.
        for _ in range(10):
            assert client.get(key) == "v2"
            client.policy.invalidate(key)


class TestEngineAxis:
    def test_replication_spec_disabled_publishes_no_tier_counters(self):
        spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(dist="zipf-0.99"),
            policy=PolicySpec(name="lru", cache_lines=16),
            accesses=2_000,
        )
        result = ClusterRunner().run(spec)
        assert not any(
            name.startswith("replication.")
            for name in result.telemetry.counters
        )
        assert all(client.router is None for client in result.front_ends)

    def test_replication_spec_enabled_builds_shared_router(self):
        spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(dist="zipf-1.2", read_fraction=0.8),
            policy=PolicySpec(name="cot", cache_lines=32, tracker_lines=64),
            topology=TopologySpec(
                replication=ReplicationConfig(
                    degree=2, min_share=0.02, refresh_every=256
                )
            ),
            accesses=4_000,
        )
        result = ClusterRunner().run(spec)
        routers = {id(client.router) for client in result.front_ends}
        assert len(routers) == 1  # one shared agreement layer
        counters = result.telemetry.counters
        assert counters["replication.refreshes"] > 0
        assert "replication.active_keys" in result.telemetry.gauges

    def test_replication_promotes_under_arbitration(self):
        spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(dist="zipf-1.2", read_fraction=0.8),
            policy=PolicySpec(
                name="cot", cache_lines=32, tracker_lines=64,
                arbitration=ArbitrationSpec(epoch_length=512),
            ),
            topology=TopologySpec(
                replication=ReplicationConfig(
                    degree=2, min_share=0.02, refresh_every=256
                )
            ),
            accesses=4_000,
        )
        result = ClusterRunner().run(spec)
        assert result.telemetry.counters["replication.promotions"] > 0


class TestHotKeyExperimentVerdict:
    def test_single_hot_key_pair_meets_its_targets(self):
        baseline, replicated = extension_hotkey.run_pair(
            Scale.tiny(), "single-hot-key"
        )
        assert replicated.promotions > 0 and replicated.replicated_reads > 0
        speedup = replicated.parallelism / baseline.parallelism
        assert speedup >= extension_hotkey.THROUGHPUT_TARGET
        spread_ratio = replicated.spread / baseline.spread
        assert spread_ratio <= extension_hotkey.SPREAD_TARGET

    def test_run_raises_when_a_target_is_out_of_reach(self, monkeypatch):
        monkeypatch.setattr(extension_hotkey, "THROUGHPUT_TARGET", 100.0)
        with pytest.raises(ExperimentError, match="throughput speedup"):
            # Any run misses a 100x target; a short stream on small rings
            # keeps the four cluster builds cheap.
            extension_hotkey.run(Scale.tiny().scaled(accesses=4_000), num_servers=4)


class ReplicationMachine(RuleBasedStateMachine):
    """Zero stale reads under promote/demote/write/kill/revive interleavings.

    One front end over a 4-shard faulty cluster with a replication router.
    A plain dict mirrors every write (storage is authoritative, so the
    dict IS the ground truth); every ``get`` must return exactly the
    mirrored value no matter how promotions, demotions, replicated write
    fan-outs, shard kills and cold revivals interleave.
    """

    KEYS = [f"usertable:{i}" for i in range(6)]

    def __init__(self) -> None:
        super().__init__()
        self.cluster, self.faults = make_cluster(n=4, seed=7)
        self.router = HotKeyRouter(
            self.cluster, ReplicationConfig(degree=3)
        )
        self.client = make_client(
            self.cluster, self.router, seed=11, policy=LRUCache(4),
            threshold=2, cooldown=64.0,
        )
        self.model: dict[str, object] = {}
        self.version = 0
        self.down: set[str] = set()
        for key in self.KEYS:
            self.model[key] = ("v", 0)
            self.cluster.storage.set(key, ("v", 0))

    @rule(key=st.sampled_from(KEYS))
    def do_get(self, key: str) -> None:
        assert self.client.get(key) == self.model[key]

    @rule(key=st.sampled_from(KEYS))
    def do_set(self, key: str) -> None:
        self.version += 1
        value = ("v", self.version)
        self.client.set(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def do_promote(self, key: str) -> None:
        self.router.promote(key)

    @rule(key=st.sampled_from(KEYS))
    def do_demote(self, key: str) -> None:
        self.router.demote(key)

    @rule(shard=st.integers(0, 3))
    def do_kill(self, shard: int) -> None:
        sid = f"cache-{shard}"
        if sid not in self.down:
            self.cluster.kill_server(sid)
            self.down.add(sid)

    @rule(shard=st.integers(0, 3))
    def do_revive_cold(self, shard: int) -> None:
        sid = f"cache-{shard}"
        if sid in self.down:
            self.cluster.revive_server(sid, cold=True)
            self.down.remove(sid)


ReplicationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestReplicationStateful = ReplicationMachine.TestCase
