"""Chaos/recovery tests for the fault-tolerant data plane.

Covers the resilience triad (immediate counted retries, per-shard circuit
breakers, storage-fallback degraded reads), recovery handling (cold
revival re-probes and re-closes the breaker), churn-safe elastic
accounting (a dead or replaced shard must not fabricate an ``I_c`` spike
and a spurious EXPAND), and the simulator's timing-plane fault model.
"""

from __future__ import annotations

import pytest

from repro.cluster.backend import BackendCacheServer
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import TIMEOUT_FACTOR, FaultInjector
from repro.cluster.retry import BreakerConfig, BreakerState, ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.core.elastic import ElasticCoTClient
from repro.engine import (
    PolicySpec,
    Scale,
    ScenarioSpec,
    SimRunner,
    TopologySpec,
    WorkloadSpec,
)
from repro.engine import telemetry as T
from repro.errors import (
    ClusterError,
    ConfigurationError,
    ShardDownError,
    ShardFailure,
    ShardFlakyError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.policies.lru import LRUCache
from repro.workloads.base import format_key
from repro.workloads.mixer import OperationMixer
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator


def faulty_cluster(n=4, seed=0, storage=None):
    faults = FaultInjector(seed=seed)
    cluster = CacheCluster(
        num_servers=n, virtual_nodes=256, value_size=1,
        storage=storage, faults=faults,
    )
    return cluster, faults


def tight_guard(cluster, threshold=3, cooldown=8.0):
    return ClusterGuard(
        cluster.server_ids,
        max_attempts=2,
        breaker=BreakerConfig(failure_threshold=threshold, cooldown=cooldown),
    )


def refused(request) -> bool:
    """Whether one shard request failed on an injected fault."""
    try:
        request()
    except ShardFailure:
        return True
    return False


class TestFaultInjector:
    def test_kill_and_revive(self):
        injector = FaultInjector()
        injector.kill("s0")
        assert injector.is_down("s0")
        assert injector.down_servers() == frozenset({"s0"})
        with pytest.raises(ShardDownError):
            injector.check("s0")
        injector.revive("s0")
        assert not injector.is_down("s0")
        injector.check("s0")  # healthy again: no raise

    def test_kill_is_idempotent(self):
        injector = FaultInjector()
        injector.kill("s0")
        injector.kill("s0")
        injector.revive("s0")  # a second kill is not a second outage
        assert injector.down_servers() == frozenset()
        injector.check("s0")

    def test_extreme_slowdown_is_a_timeout_on_the_live_plane(self):
        injector = FaultInjector()
        injector.set_slowdown("s0", TIMEOUT_FACTOR / 2)
        injector.check("s0")  # below the deadline: merely slow
        injector.set_slowdown("s0", TIMEOUT_FACTOR)
        with pytest.raises(ShardTimeoutError):
            injector.check("s0")

    def test_flaky_is_seeded_and_probabilistic(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(seed=7)
            injector.set_flaky("s0", 0.3)
            outcomes.append(
                [refused(lambda: injector.check("s0")) for _ in range(200)]
            )
        assert outcomes[0] == outcomes[1]  # reproducible
        failures = sum(outcomes[0])
        assert 0 < failures < 200
        injector = FaultInjector(seed=7)
        injector.set_flaky("s0", 1.0)
        with pytest.raises(ShardFlakyError):
            injector.check("s0")

    def test_clear_restores_health(self):
        injector = FaultInjector()
        injector.kill("s0")
        injector.set_flaky("s0", 1.0)
        injector.clear("s0")
        assert injector.tracked_servers() == frozenset()
        injector.check("s0")


class TestRetry:
    def test_success_needs_no_retry(self):
        guard = ClusterGuard(["s0"])
        assert guard.call("s0", lambda: 42) == 42
        assert guard.stats.retries == 0
        assert guard.stats.operations == 1

    def test_transient_failure_is_retried(self):
        guard = ClusterGuard(["s0"], max_attempts=3)
        calls = [0]

        def flaky_once():
            calls[0] += 1
            if calls[0] == 1:
                raise ShardFlakyError("flake")
            return "ok"

        assert guard.call("s0", flaky_once) == "ok"
        assert calls[0] == 2
        assert guard.stats.retries == 1
        assert guard.stats.failures == 0

    def test_exhausted_retries_raise_unavailable(self):
        guard = ClusterGuard(
            ["s0"],
            max_attempts=3,
            breaker=BreakerConfig(failure_threshold=100),
        )
        calls = [0]

        def always_down():
            calls[0] += 1
            raise ShardDownError("down")

        with pytest.raises(ShardUnavailableError):
            guard.call("s0", always_down)
        assert calls[0] == 3
        assert guard.stats.retries == 2
        assert guard.stats.failures == 1

    def test_max_attempts_below_one_is_refused(self):
        with pytest.raises(ConfigurationError):
            ClusterGuard(["s0"], max_attempts=0)

    def test_non_shard_errors_propagate_untouched(self):
        guard = ClusterGuard(["s0"])

        def broken():
            raise ValueError("bug")

        with pytest.raises(ValueError):
            guard.call("s0", broken)


class TestCircuitBreaker:
    attempts = 0

    def always_down(self):
        self.attempts += 1
        raise ShardDownError("down")

    def test_opens_after_threshold_and_rejects_instantly(self):
        guard = tight_guard_for(["s0"], threshold=4, cooldown=1000.0)
        for _ in range(2):  # 2 ops x 2 attempts = 4 consecutive failures
            with pytest.raises(ShardUnavailableError):
                guard.call("s0", self.always_down)
        assert guard.state("s0") is BreakerState.OPEN
        assert self.attempts == 4
        with pytest.raises(ShardUnavailableError):
            guard.call("s0", self.always_down)
        # Rejected without a single doomed request attempt.
        assert self.attempts == 4
        assert guard.stats.open_rejections == 1

    def test_half_opens_after_cooldown_then_closes_on_success(self):
        guard = tight_guard_for(["s0", "s1"], threshold=2, cooldown=4.0)
        with pytest.raises(ShardUnavailableError):
            guard.call("s0", self.always_down)
        assert guard.state("s0") is BreakerState.OPEN
        for _ in range(4):  # healthy traffic elsewhere advances the clock
            guard.call("s1", lambda: "ok")
        assert guard.state("s0") is BreakerState.HALF_OPEN
        assert guard.call("s0", lambda: "recovered") == "recovered"
        assert guard.state("s0") is BreakerState.CLOSED
        assert guard.breaker("s0").closes == 1
        assert guard.breaker("s0").half_opens == 1

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        guard = tight_guard_for(["s0", "s1"], threshold=2, cooldown=4.0)
        with pytest.raises(ShardUnavailableError):
            guard.call("s0", self.always_down)
        for _ in range(4):
            guard.call("s1", lambda: "ok")
        with pytest.raises(ShardUnavailableError):  # the probe fails
            guard.call("s0", self.always_down)
        assert guard.state("s0") is BreakerState.OPEN
        with pytest.raises(ShardUnavailableError):  # still cooling down
            guard.call("s0", lambda: "ok")
        assert guard.stats.open_rejections == 1

    def test_unavailable_servers_tracks_non_closed_breakers(self):
        guard = tight_guard_for(["s0", "s1"], threshold=2, cooldown=1000.0)
        assert guard.unavailable_servers() == frozenset()
        with pytest.raises(ShardUnavailableError):
            guard.call("s0", self.always_down)
        assert guard.unavailable_servers() == frozenset({"s0"})


def tight_guard_for(servers, threshold, cooldown):
    return ClusterGuard(
        servers,
        max_attempts=2,
        breaker=BreakerConfig(failure_threshold=threshold, cooldown=cooldown),
    )


class TestDegradedReads:
    def test_reads_stay_correct_while_shard_is_down(self):
        storage = PersistentStore(value_factory=lambda k: ("auth", k))
        cluster, faults = faulty_cluster(storage=storage)
        client = FrontEndClient(
            cluster, LRUCache(4), guard=tight_guard(cluster)
        )
        keys = [format_key(i) for i in range(200)]
        victim = "cache-1"
        cluster.kill_server(victim)
        for key in keys:
            assert client.get(key) == ("auth", key)
        assert client.monitor.degraded_reads() > 0
        assert client.monitor.degraded_by_server()[victim] > 0

    def test_get_many_degrades_per_dead_shard_only(self):
        storage = PersistentStore(value_factory=lambda k: ("auth", k))
        cluster, faults = faulty_cluster(storage=storage)
        client = FrontEndClient(
            cluster, LRUCache(4), guard=tight_guard(cluster)
        )
        cluster.kill_server("cache-2")
        keys = [format_key(i) for i in range(150)]
        values = client.get_many(keys)
        assert values == {key: ("auth", key) for key in keys}
        degraded = client.monitor.degraded_by_server()
        assert degraded.get("cache-2", 0) > 0
        assert all(sid == "cache-2" for sid in degraded)

    def test_fault_errors_counted_on_the_shard(self):
        cluster, faults = faulty_cluster()
        client = FrontEndClient(
            cluster, LRUCache(4), guard=tight_guard(cluster)
        )
        cluster.kill_server("cache-0")
        for i in range(100):
            client.get(format_key(i))
        # Every attempt that reached the dead shard was refused and
        # counted: the guard's attempts there, none of its open rejections.
        routed = sum(
            cluster.ring.server_for(format_key(i)) == "cache-0" for i in range(100)
        )
        stats = client.guard.stats
        assert stats.failures == routed > 0
        assert cluster.server("cache-0").stats.fault_errors == (
            routed - stats.open_rejections + stats.retries
        )

    @pytest.mark.parametrize("fault", ["killed", "slowed", "flaky"])
    def test_fault_errors_count_every_refused_request_on_every_verb(self, fault):
        """``BackendStats.fault_errors`` is the one count of injected
        failures: on each verb it moves by exactly the number of requests
        a fault refused. Catches a verb that skips ``_check_fault`` (its
        requests would succeed on a dead shard and count nothing)."""
        faults = FaultInjector(seed=11)
        shard = BackendCacheServer("s0", default_value_size=1, fault_injector=faults)
        if fault == "killed":
            faults.kill("s0")
        elif fault == "slowed":
            faults.set_slowdown("s0", TIMEOUT_FACTOR)
        else:
            faults.set_flaky("s0", 0.5)
        verbs = {
            "get": lambda i: shard.get(format_key(i)),
            "get_many": lambda i: shard.get_many([format_key(i), format_key(i + 1)]),
            "set": lambda i: shard.set(format_key(i), i),
            "delete": lambda i: shard.delete(format_key(i)),
        }
        requests = 200
        for verb, request in verbs.items():
            before = shard.stats.fault_errors
            failed = sum(refused(lambda: request(i)) for i in range(requests))
            assert shard.stats.fault_errors - before == failed, verb
            if fault == "flaky":
                assert 0 < failed < requests, verb
            else:
                assert failed == requests, verb

    def test_kill_without_injector_is_an_error(self):
        cluster = CacheCluster(num_servers=2, virtual_nodes=64, value_size=1)
        with pytest.raises(ClusterError):
            cluster.kill_server("cache-0")


class TestRecovery:
    def test_cold_revival_closes_breaker_and_wipes_staleness(self):
        cluster, faults = faulty_cluster()
        guard = tight_guard(cluster, threshold=2, cooldown=8.0)
        client = FrontEndClient(cluster, LRUCache(64), guard=guard)
        # Find a key owned by the victim and cache it at the shard.
        victim = "cache-1"
        key = next(
            format_key(i)
            for i in range(1000)
            if cluster.ring.server_for(format_key(i)) == victim
        )
        client.get(key)
        cluster.kill_server(victim)
        # Trip the breaker with reads, then write while the shard is dead:
        # the shard-side invalidation is lost (and counted).
        for i in range(50):
            client.get(format_key(i))
        assert guard.state(victim) is not BreakerState.CLOSED
        client.policy.invalidate(key)
        client.set(key, "fresh")
        assert guard.stats.lost_invalidations >= 1
        # Cold revival: the shard restarts empty, so the stale copy that
        # missed its invalidation cannot be served — and the breaker is
        # reset at the incarnation boundary (the failure streak belonged
        # to the dead incarnation), so the revived shard is reachable
        # immediately instead of after a cooldown's worth of traffic.
        cluster.revive_server(victim)
        assert guard.state(victim) is BreakerState.CLOSED
        assert client.get(key) == "fresh"

    def test_cold_revival_zeroes_load_window_with_router_attached(self):
        """LoadMonitor accounting across kill/revive: a cold-revived shard
        restarts with an empty cache, so its pre-outage epoch-window load
        must not make it look busy to two-choices routing — the window is
        zeroed on revival while lifetime counters stay intact."""
        from repro.cluster.replication import HotKeyRouter, ReplicationConfig

        cluster, faults = faulty_cluster(n=4)
        client = FrontEndClient(
            cluster, LRUCache(8), guard=tight_guard(cluster)
        )
        router = HotKeyRouter(cluster, ReplicationConfig(degree=2))
        client.attach_router(router, seed=3)
        for i in range(400):
            client.get(format_key(i))
        victim = max(
            client.monitor.epoch_loads(), key=client.monitor.epoch_load
        )
        window_before = client.monitor.epoch_load(victim)
        lifetime_before = client.monitor.total_loads()[victim]
        assert window_before > 0
        cluster.kill_server(victim)
        cluster.revive_server(victim, cold=True)
        assert client.monitor.epoch_load(victim) == 0
        assert client.monitor.total_loads()[victim] == lifetime_before
        # other shards' windows are untouched
        assert any(
            load > 0 for load in client.monitor.epoch_loads().values()
        )

    def test_breaker_reset_on_cold_revival_prevents_cross_client_staleness(self):
        """Regression (found by the stateful fuzzer): breakers are
        per front end, so "my breaker is open" must imply "the shard is
        really down" — otherwise a writer keeps skipping shard-side
        invalidations against a shard that *other* front ends (closed
        breakers) are happily filling and reading. A breaker left OPEN
        past a cold revival broke exactly that: writer trips its breaker
        while the shard is dead, shard revives cold, a reader re-fills
        it, the writer's delete is skipped by the stale-open breaker,
        and the reader serves the value the delete was meant to kill."""
        storage = PersistentStore()
        cluster, faults = faulty_cluster(storage=storage)
        writer = FrontEndClient(
            cluster,
            LRUCache(8),
            client_id="writer",
            guard=tight_guard(cluster, threshold=1, cooldown=1e9),
        )
        reader = FrontEndClient(cluster, LRUCache(8), client_id="reader")
        victim = "cache-1"
        key = next(
            format_key(i)
            for i in range(1000)
            if cluster.ring.server_for(format_key(i)) == victim
        )
        cluster.kill_server(victim)
        writer.set(key, "doomed")  # invalidation fails; breaker trips
        assert writer.guard.state(victim) is not BreakerState.CLOSED
        cluster.revive_server(victim, cold=True)
        # The revival reset the writer's breaker for the new incarnation.
        assert writer.guard.state(victim) is BreakerState.CLOSED
        assert reader.get(key) == "doomed"  # re-fills the revived shard
        writer.delete(key)
        # Force the reader through the caching layer: its local copy was
        # dropped here to model any ordinary eviction.
        reader.policy.invalidate(key)
        assert reader.get(key) == storage.get(key)

    def test_breaker_totals_survive_cold_revival(self):
        """Regression: ``forget`` dropped a breaker with its ``opens`` /
        ``closes``, so the run total of ``resilience.breaker_opens`` fell
        back to 0 when a tripped shard revived cold, although the phase
        deltas taken from the same counters had counted the trip."""
        cluster, faults = faulty_cluster()
        client = FrontEndClient(
            cluster, LRUCache(16), guard=tight_guard(cluster, threshold=2)
        )
        victim = "cache-1"

        def opens():
            counters = T.collect({"breaker": client.guard.breakers()}).counters
            return counters["resilience.breaker_opens"]

        cluster.kill_server(victim)
        for i in range(200):
            client.get(format_key(i))
        assert client.guard.state(victim) is not BreakerState.CLOSED
        tripped = opens()
        assert tripped > 0
        cluster.revive_server(victim, cold=True)
        assert victim not in client.guard.tracked_servers()
        assert opens() == tripped

    def test_removed_shard_leaves_no_orphaned_client_state(self):
        """Regression: scale-in left the departed shard's fault profile,
        breaker and load-window entries behind forever. All of it is
        torn down via the cluster's removal listeners."""
        cluster, faults = faulty_cluster()
        client = FrontEndClient(
            cluster, LRUCache(16), guard=tight_guard(cluster)
        )
        generator = UniformGenerator(2_000, seed=9)
        for key in generator.keys(400):
            client.get(format_key(key))
        victim = "cache-2"
        cluster.kill_server(victim)
        for key in generator.keys(200):
            client.get(format_key(key))  # accumulate failures on victim
        cluster.remove_server(victim)
        assert victim not in faults.tracked_servers()
        assert victim not in faults.down_servers()
        assert victim not in client.guard.tracked_servers()
        assert victim not in client.monitor.total_loads()
        assert victim not in client.monitor.epoch_loads()

    def test_state_is_a_read_and_registers_no_breaker(self):
        """Regression: ``state()`` went through ``breaker()`` and so
        re-created the breaker ``forget`` had just dropped — replica
        routing asks ``state(sid)`` of every eligible replica per read."""
        guard = ClusterGuard(["a", "b"])
        guard.forget("a")
        assert guard.state("a") is BreakerState.CLOSED
        assert guard.state("ghost") is BreakerState.CLOSED
        assert guard.tracked_servers() == {"b"}
        guard.call("a", lambda: "ok")  # a request to it registers it again
        assert guard.tracked_servers() == {"a", "b"}

    def test_outage_is_transparent_to_callers(self):
        """Kill → serve → revive, not one exception escapes the client."""
        cluster, faults = faulty_cluster()
        client = FrontEndClient(
            cluster, LRUCache(16), guard=tight_guard(cluster)
        )
        generator = ZipfianGenerator(2_000, theta=1.1, seed=5)
        for phase, action in [
            (None, None),
            ("cache-0", cluster.kill_server),
            ("cache-0", cluster.revive_server),
        ]:
            if action is not None:
                action(phase)
            for key in generator.keys(500):
                client.get(format_key(key))
        assert client.monitor.degraded_reads() > 0


class TestChurnSafeElastic:
    def new_elastic(self, cluster, base_epoch=400, **kwargs):
        return ElasticCoTClient(
            cluster,
            target_imbalance=1.1,
            base_epoch=base_epoch,
            guard=tight_guard(cluster, threshold=3, cooldown=64.0),
            **kwargs,
        )

    def test_dead_shard_excluded_from_epoch_imbalance(self):
        cluster, faults = faulty_cluster()
        client = self.new_elastic(cluster)
        generator = ZipfianGenerator(5_000, theta=1.1, seed=11)
        for key in generator.keys(300):
            client.get(format_key(key))
        cluster.kill_server("cache-1")
        for key in generator.keys(2_000):
            client.get(format_key(key))
        # The breaker is open, so the dead shard's partial count is out.
        assert "cache-1" not in client._churn_safe_epoch_loads()
        for record in client.history:
            assert record.snapshot.imbalance < 50.0  # no phantom max/1 spike

    def test_removed_shard_zero_load_entry_is_ignored(self):
        """A removed shard's monitor entries are purged outright (via the
        cluster's removal listener), so a stale zero-load entry can never
        floor min-load at 1 — and the controller never sees the id."""
        cluster, faults = faulty_cluster()
        client = self.new_elastic(cluster, base_epoch=400)
        generator = UniformGenerator(5_000, seed=12)
        for key in generator.keys(1_200):
            client.get(format_key(key))
        cluster.remove_server("cache-1")
        replacement = cluster.add_server().server_id
        assert replacement != "cache-1"
        for key in generator.keys(4_000):
            client.get(format_key(key))
        # The removal listener purged every monitor entry for the id...
        assert "cache-1" not in client.monitor.total_loads()
        # ...so the controller cannot see it either.
        assert "cache-1" not in client._churn_safe_epoch_loads()
        # Uniform workload: no epoch may show the phantom max/1 spike, and
        # no expansion may ride on an inflated imbalance reading.
        for record in client.history:
            assert record.snapshot.imbalance < 50.0
            if record.decision == "expand":
                assert record.snapshot.imbalance < 5.0
        assert replacement in client.monitor.total_loads()

    def test_scale_in_cannot_resurrect_a_rehomed_stale_copy(self):
        """Regression (end to end): read key → scale OUT moves its
        ownership to the new shard → write deletes only on the new owner
        → scale the new owner back IN → ownership regresses to the old
        shard, whose pre-write copy used to serve. The removal-time
        purge drops re-homed copies from survivors, so the read below
        must see the write."""
        storage = PersistentStore()
        cluster, _ = faulty_cluster(n=3, storage=storage)
        client = FrontEndClient(cluster, LRUCache(64))
        keys = [format_key(i) for i in range(300)]
        owners_before = {k: cluster.ring.server_for(k) for k in keys}
        for k in keys:
            client.get(k)  # fills the current owners' shard caches
        added = cluster.add_server().server_id
        moved = [
            k
            for k in keys
            if cluster.ring.server_for(k) == added
            and owners_before[k] != added
        ]
        assert moved, "no key re-homed to the new shard; enlarge the key set"
        key = moved[0]
        client.set(key, "fresh")  # invalidates the *new* owner only
        cluster.remove_server(added)  # ownership regresses
        assert cluster.ring.server_for(key) == owners_before[key]
        client.policy.invalidate(key)  # force the read through the layer
        assert client.get(key) == "fresh"

    def test_remove_then_add_within_one_epoch_cannot_double_count(self):
        """Regression: the monitor purges a removed shard's counts and
        treats any later same-id traffic as a fresh mid-epoch joiner, so
        a remove→add inside one epoch can neither splice two
        incarnations' counts nor leak the joiner into the controller's
        load view before its first full epoch."""
        cluster, faults = faulty_cluster()
        client = self.new_elastic(cluster, base_epoch=10_000)
        generator = UniformGenerator(5_000, seed=13)
        for key in generator.keys(1_500):
            client.get(format_key(key))
        # Removing the *highest* id is the aliasing-prone case: naming
        # the next shard by member count re-minted exactly this id.
        cluster.remove_server("cache-3")
        replacement = cluster.add_server().server_id
        for key in generator.keys(1_500):
            client.get(format_key(key))
        # Same epoch: the replacement is tracked, flagged fresh, and
        # invisible to the controller.
        assert replacement in client.monitor.epoch_new_servers()
        safe = client._churn_safe_epoch_loads()
        assert replacement not in safe
        assert "cache-3" not in safe
        assert all(count <= 1_500 + 1_500 for count in safe.values())
        client.close_epoch()
        for key in generator.keys(1_500):
            client.get(format_key(key))
        # Next epoch: the replacement graduates into the load view.
        assert replacement in client._churn_safe_epoch_loads()

    def test_healthy_cluster_expansion_identical_with_and_without_injector(self):
        """Fig. 7's expansion must be byte-identical on a healthy cluster
        whether or not the fault plumbing is attached."""

        def run(with_injector: bool):
            if with_injector:
                cluster, _ = faulty_cluster(n=4)
            else:
                cluster = CacheCluster(
                    num_servers=4, virtual_nodes=256, value_size=1
                )
            client = ElasticCoTClient(
                cluster, target_imbalance=1.1, base_epoch=500
            )
            generator = ZipfianGenerator(5_000, theta=1.2, seed=21)
            for key in generator.keys(15_000):
                client.get(format_key(key))
            return (
                client.converged_sizes(),
                [record.as_row() for record in client.history],
            )

        assert run(False) == run(True)

    def test_expansion_still_happens_under_skew(self):
        cluster, faults = faulty_cluster()
        client = self.new_elastic(cluster, base_epoch=300)
        generator = ZipfianGenerator(5_000, theta=1.3, seed=22)
        for key in generator.keys(12_000):
            client.get(format_key(key))
        assert client.cot.capacity > 2  # the controller did expand
        assert any(r.decision == "expand" for r in client.history)


class TestSimFaults:
    def run_sim(self, faults=None, seed=31):
        spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(
                mixer_factory=lambda cid: OperationMixer(
                    ZipfianGenerator(2_000, theta=1.1, seed=seed + cid),
                    read_fraction=0.9,
                    seed=100 + cid,
                )
            ),
            policy=PolicySpec(factory=lambda cid: LRUCache(64)),
            topology=TopologySpec(num_servers=4, num_clients=2, faults=faults),
            requests_per_client=1_500,
        )
        return SimRunner().run(spec).telemetry

    def test_dead_shard_degrades_reads_and_run_completes(self):
        faults = FaultInjector(seed=1)
        faults.kill("cache-0")
        telemetry = self.run_sim(faults=faults)
        assert telemetry.total_requests == 3_000
        assert telemetry.degraded_reads > 0
        assert telemetry.fallback_latency > 0.0
        assert telemetry.failed_invalidations > 0
        # Each SimClient runs its own guard; its counters reach the page.
        counters = telemetry.counters
        assert counters["resilience.breaker_opens"] > 0
        retried = counters["resilience.retries"]
        assert retried + counters["resilience.open_rejections"] > 0

    def test_fallbacks_cost_latency(self):
        healthy = self.run_sim(faults=None)
        faults = FaultInjector(seed=1)
        faults.kill("cache-0")
        degraded = self.run_sim(faults=faults)
        assert degraded.mean_latency > healthy.mean_latency

    def test_slowdown_inflates_runtime(self):
        healthy = self.run_sim(faults=FaultInjector(seed=1))
        faults = FaultInjector(seed=1)
        faults.set_slowdown("cache-1", 4.0)
        slowed = self.run_sim(faults=faults)
        assert slowed.runtime > healthy.runtime
        assert slowed.degraded_reads == 0  # slow, not failed


class TestChaosExperiment:
    def test_smoke_run_meets_acceptance_criteria(self):
        from repro.experiments import extension_chaos
        from repro.experiments.common import Scale

        scale = Scale("test", key_space=5_000, accesses=24_000,
                      num_clients=1, num_servers=4)
        result = extension_chaos.run(scale, num_servers=4)
        assert result.extras["incorrect_reads"] == 0
        assert result.extras["degraded_reads"] > 0
        assert result.extras["spurious_expands"] == 0
        assert result.extras["phantom_epochs"] == 0
        assert result.extras["churn_max_imbalance"] < 5.0
