"""Unit tests for the write-path strategy layer and the cost controller.

Pins the contracts the stateful fuzzer and ``ext-write`` build on:

* a ``WriteSpec`` names only a mode a policy is built for, with valid
  parameters, and a policy is built bound to its cluster;
* a delete leaves no copy in storage, the shards or the local cache in
  every mode, replicated key or not, after the policy's bookkeeping;
* write-through SETs the owning shard (and fans out to every write
  target of a replicated key, quarantining failed replicas exactly like
  the delete fan-out);
* write-behind buffers within ``dirty_limit`` per shard, coalesces
  overwrites, bound-flushes eagerly, falls back to synchronous storage
  writes when the owner is down, loses at most the buffered entries on
  cold revival, and drains gracefully on removal;
* ttl writes advance the logical clock and copies expire lazily after
  ``ttl`` ticks — shard and local layers separately;
* the runner publishes ``write.*`` telemetry for non-default modes and
  nothing for the default;
* :class:`CostAwareController` expands while marginal lines out-earn
  their rent, shrinks when average lines cannot pay it, decays when
  tracked lines outscore cached ones, and honors warm-up after resizes.
"""

from __future__ import annotations

import pytest

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector
from repro.cluster.replication import HotKeyRouter, ReplicationConfig
from repro.cluster.storage import PersistentStore
from repro.cluster.writepolicy import (
    POLICY_MODES,
    WRITE_MODES,
    TTLWritePolicy,
    WriteBehindPolicy,
    WriteThroughPolicy,
    make_write_policy,
)
from repro.core.costaware import (
    DECAY_EPSILON,
    HYSTERESIS,
    TRACKER_RATIO,
    WARMUP_EPOCHS,
    CostAwareController,
    CostPhase,
)
from repro.core.epoch import EpochSnapshot
from repro.core.resizing import MAX_CACHE, MIN_CACHE, DecisionKind
from repro.engine import (
    ClusterRunner,
    Scale,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    WriteSpec,
)
from repro.errors import ConfigurationError
from repro.policies.base import MISSING
from repro.policies.registry import make_policy


def synthesize(key):
    return ("v", key, 0)


def build_cluster(num_servers=3, seed=0):
    faults = FaultInjector(seed=seed)
    storage = PersistentStore(value_factory=synthesize)
    cluster = CacheCluster(
        num_servers=num_servers,
        capacity_bytes=1 << 16,
        virtual_nodes=32,
        value_size=1,
        storage=storage,
        faults=faults,
    )
    return cluster, faults


def build_client(cluster, client_id="fe-0", policy_lines=8):
    policy = make_policy("cot", policy_lines, tracker_capacity=policy_lines * 2)
    return FrontEndClient(cluster, policy, client_id=client_id)


def attach(cluster, mode, **kwargs):
    return make_write_policy(mode, cluster, **kwargs)


# ---------------------------------------------------------------------------
# factory / spec surface


class TestFactory:
    def test_each_mode_builds_its_policy(self):
        classes = {
            "write-through": WriteThroughPolicy,
            "write-behind": WriteBehindPolicy,
            "ttl": TTLWritePolicy,
        }
        assert set(classes) == set(POLICY_MODES)
        assert WRITE_MODES == ("cache-aside", *POLICY_MODES)
        cluster, _ = build_cluster()
        for mode, cls in classes.items():
            policy = make_write_policy(mode, cluster)
            assert type(policy) is cls
            assert policy.mode == mode

    def test_unknown_mode_rejected(self):
        cluster, _ = build_cluster()
        for mode in ("write-around", "cache-aside"):
            with pytest.raises(
                ConfigurationError,
                match=r"expected one of write-through, write-behind, ttl$",
            ):
                make_write_policy(mode, cluster)

    def test_parameter_validation(self):
        cluster, _ = build_cluster()
        with pytest.raises(ConfigurationError):
            WriteBehindPolicy(cluster, dirty_limit=0)
        with pytest.raises(ConfigurationError):
            TTLWritePolicy(cluster, ttl=0)

    def test_write_spec_builds_its_policy(self):
        cluster, _ = build_cluster()
        policy = WriteSpec(mode="write-behind", dirty_limit=7).build_policy(cluster)
        assert isinstance(policy, WriteBehindPolicy)
        assert policy.dirty_limit == 7
        # Built bound: it follows the cluster's topology events.
        assert policy._on_cold_revival in cluster.cold_revival_listeners
        assert isinstance(
            WriteSpec(mode="ttl", ttl=99).build_policy(cluster), TTLWritePolicy
        )

    def test_write_spec_rejects_a_flush_cadence_below_one(self):
        # A zero cadence would build a buffered policy whose runner never
        # flushes it.
        with pytest.raises(ConfigurationError, match="flush_every"):
            WriteSpec(mode="write-behind", flush_every=0)

    def test_write_spec_rejects_cache_aside(self):
        # `TopologySpec(write=None)` is cache-aside; a spec is another mode.
        with pytest.raises(ConfigurationError, match="write=None"):
            WriteSpec(mode="cache-aside")

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"mode": "write-around"}, "write-through, write-behind, ttl$"),
            ({"mode": "write-behind", "dirty_limit": 0}, "dirty_limit"),
            ({"mode": "ttl", "ttl": 0}, "ttl must be"),
        ],
        ids=["unknown-mode", "dirty-limit", "ttl"],
    )
    def test_write_spec_rejects_what_no_policy_builds(self, fields, match):
        # At construction, not when a run builds its cluster.
        with pytest.raises(ConfigurationError, match=match):
            WriteSpec(**fields)


# ---------------------------------------------------------------------------
# delete: one body in every mode


@pytest.mark.parametrize("promoted", [False, True], ids=["owned", "replicated"])
@pytest.mark.parametrize(
    "mode", [None, *POLICY_MODES], ids=lambda mode: mode or "no-policy"
)
def test_delete_leaves_no_copy_and_keeps_the_policys_books(mode, promoted):
    cluster, _ = build_cluster(num_servers=4)
    client = build_client(cluster)
    wp = None if mode is None else attach(cluster, mode)
    if wp is not None:
        client.attach_write_policy(wp)
    holders = (cluster.server_for("k").server_id,)
    if promoted:
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(degree=3, top_n=4, max_keys=4),
        )
        client.attach_router(router, seed=9)
        router.promote("k")
        holders = router.write_targets("k")
        assert len(holders) == 3
    client.set("k", ("w", 1))
    for server_id in holders:  # a copy on every shard that may hold one
        cluster.server(server_id).set("k", ("w", 1))
    client.get("k")
    assert "k" in client.policy
    if mode == "write-behind":
        assert wp.buffered_value("k") == ("w", 1)
    if mode == "ttl":
        assert "k" in wp._local_stamps[client.client_id]
    writes = None if wp is None else wp.stats.storage_writes
    clock = wp.clock if mode == "ttl" else None

    client.delete("k")

    assert not cluster.storage.was_written("k")
    for server_id in holders:
        assert cluster.server(server_id).get("k") is MISSING
    assert "k" not in client.policy
    if wp is not None:
        assert wp.stats.storage_writes == writes + 1
    if mode == "write-behind":
        assert wp.buffered_value("k") is MISSING
        assert wp.dirty_depth() == 0
    if mode == "ttl":
        assert wp.clock == clock + 1
        assert "k" not in wp._local_stamps[client.client_id]


# ---------------------------------------------------------------------------
# write-through


class TestWriteThrough:
    def test_shard_holds_fresh_value_after_ack(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-through")
        client.attach_write_policy(wp)
        client.set("k", ("w", 1))
        server = cluster.server_for("k")
        assert server.get("k") == ("w", 1)
        assert cluster.storage.get("k") == ("w", 1)
        assert wp.stats.through_writes == 1
        assert wp.stats.storage_writes == 1

    def test_down_shard_misses_refresh_but_write_is_durable(self):
        cluster, faults = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-through")
        client.attach_write_policy(wp)
        victim = cluster.server_for("k").server_id
        cluster.kill_server(victim)
        client.set("k", ("w", 1))
        assert cluster.storage.get("k") == ("w", 1)
        assert wp.stats.through_writes == 0
        assert client.guard.stats.lost_invalidations == 1

    def test_replicated_fanout_sets_every_write_target(self):
        cluster, _ = build_cluster(num_servers=4)
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(degree=3, top_n=4, max_keys=4),
        )
        client = build_client(cluster)
        client.attach_router(router, seed=9)
        wp = attach(cluster, "write-through")
        client.attach_write_policy(wp)
        replicas = router.promote("hot")
        assert len(replicas) == 3
        client.set("hot", ("w", 7))
        for server_id in replicas:
            assert cluster.server(server_id).get("hot") == ("w", 7)
        assert wp.stats.through_writes == 3

    def test_failed_replica_set_quarantines(self):
        cluster, faults = build_cluster(num_servers=4)
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(degree=3, top_n=4, max_keys=4),
        )
        client = build_client(cluster)
        client.attach_router(router, seed=9)
        wp = attach(cluster, "write-through")
        client.attach_write_policy(wp)
        replicas = router.promote("hot")
        victim = replicas[-1]
        cluster.kill_server(victim)
        client.set("hot", ("w", 1))
        entry = router.routes["hot"]
        assert victim in entry.quarantine
        assert wp.stats.through_writes == len(replicas) - 1


# ---------------------------------------------------------------------------
# write-behind


class TestWriteBehind:
    def test_buffer_coalesces_and_reads_see_pending(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-behind", dirty_limit=4)
        client.attach_write_policy(wp)
        client.set("k", ("w", 1))
        client.set("k", ("w", 2))
        assert cluster.storage.get("k") == synthesize("k")  # not yet durable
        assert client.get("k") == ("w", 2)
        assert wp.stats.buffered_writes == 2
        assert wp.stats.coalesced_writes == 1
        assert wp.dirty_depth() == 1

    def test_buffered_value_survives_shard_eviction(self):
        """A dirty key whose shard copy is gone must be served from the
        queue, not backfilled stale from storage."""
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-behind", dirty_limit=8)
        client.attach_write_policy(wp)
        client.set("k", ("w", 1))
        server = cluster.server_for("k")
        server.delete("k")  # simulate capacity eviction of the shard copy
        client.policy.invalidate("k")  # and of the local copy
        assert client.get("k") == ("w", 1)

    def test_bound_flush_keeps_depth_at_limit(self):
        cluster, _ = build_cluster(num_servers=1)  # all keys share one queue
        client = build_client(cluster, policy_lines=64)
        wp = attach(cluster, "write-behind", dirty_limit=3)
        client.attach_write_policy(wp)
        for i in range(10):
            client.set(f"k{i}", ("w", i))
        assert wp.stats.peak_dirty <= 3
        assert wp.stats.bound_flushes == 3
        assert wp.stats.flushed_writes == 9
        for i in range(9):  # every bound-flushed write became durable
            assert cluster.storage.get(f"k{i}") == ("w", i)

    def test_flush_drains_and_skips_down_shards(self):
        cluster, _ = build_cluster(num_servers=3)
        client = build_client(cluster, policy_lines=64)
        wp = attach(cluster, "write-behind", dirty_limit=16)
        client.attach_write_policy(wp)
        for i in range(12):
            client.set(f"k{i}", ("w", i))
        dirty = wp.dirty_snapshot()
        victim = max(dirty, key=lambda sid: len(dirty[sid]))
        frozen = len(dirty[victim])
        cluster.kill_server(victim)
        flushed = wp.flush()
        assert flushed == 12 - frozen
        assert wp.dirty_depth() == frozen  # the dead shard's queue froze

    def test_sync_fallback_when_owner_down(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-behind", dirty_limit=4)
        client.attach_write_policy(wp)
        victim = cluster.server_for("k").server_id
        cluster.kill_server(victim)
        client.set("k", ("w", 1))
        assert wp.stats.sync_fallbacks == 1
        # The owner's missed SET is a lost invalidation, as in write-through.
        assert client.guard.stats.lost_invalidations == 1
        assert wp.dirty_depth() == 0
        assert cluster.storage.get("k") == ("w", 1)  # durable immediately

    def test_cold_revival_loses_at_most_dirty_limit(self):
        cluster, _ = build_cluster()
        client = build_client(cluster, policy_lines=64)
        wp = attach(cluster, "write-behind", dirty_limit=5)
        client.attach_write_policy(wp)
        for i in range(20):
            client.set(f"k{i}", ("w", i))
        dirty = wp.dirty_snapshot()
        victim = max(dirty, key=lambda sid: len(dirty[sid]))
        frozen = dict(dirty[victim])
        assert 0 < len(frozen) <= 5
        cluster.kill_server(victim)
        cluster.revive_server(victim, cold=True)
        assert wp.stats.lost_writes == len(frozen)
        assert wp.stats.lost_writes <= 5
        for key in frozen:  # the lost writes never became durable
            assert cluster.storage.get(key) != frozen[key]

    def test_removal_drains_gracefully(self):
        cluster, _ = build_cluster(num_servers=3)
        client = build_client(cluster, policy_lines=64)
        wp = attach(cluster, "write-behind", dirty_limit=16)
        client.attach_write_policy(wp)
        for i in range(12):
            client.set(f"k{i}", ("w", i))
        dirty = wp.dirty_snapshot()
        victim = max(dirty, key=lambda sid: len(dirty[sid]))
        departing = dict(dirty[victim])
        cluster.remove_server(victim)
        assert wp.stats.lost_writes == 0
        for key, value in departing.items():
            assert cluster.storage.get(key) == value

    def test_delete_discards_pending_entry(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "write-behind", dirty_limit=4)
        client.attach_write_policy(wp)
        client.set("k", ("w", 1))
        client.delete("k")
        assert wp.dirty_depth() == 0
        assert wp.flush() == 0  # nothing to resurrect
        assert cluster.storage.get("k") == synthesize("k")

    def test_replicated_fanout_sets_value_on_all_targets(self):
        cluster, _ = build_cluster(num_servers=4)
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(degree=3, top_n=4, max_keys=4),
        )
        client = build_client(cluster)
        client.attach_router(router, seed=9)
        wp = attach(cluster, "write-behind", dirty_limit=4)
        client.attach_write_policy(wp)
        replicas = router.promote("hot")
        client.set("hot", ("w", 3))
        for server_id in replicas:
            assert cluster.server(server_id).get("hot") == ("w", 3)
        assert wp.dirty_snapshot() == {replicas[0]: {"hot": ("w", 3)}}

    def test_replicated_write_with_its_queue_shard_down_is_synchronous(self):
        """A replicated key's queue lives on its first write target; with
        that shard down the write must not queue into the dead buffer
        (a cold revival would then lose a write acknowledged after the
        crash) but fall back to storage, like an unreplicated key's."""
        cluster, faults = build_cluster(num_servers=4)
        router = HotKeyRouter(
            cluster,
            ReplicationConfig(degree=2, top_n=4, max_keys=4),
        )
        client = build_client(cluster)
        client.attach_router(router, seed=9)
        wp = attach(cluster, "write-behind", dirty_limit=4)
        client.attach_write_policy(wp)
        replicas = router.promote("hot")
        cluster.kill_server(replicas[0])
        client.set("hot", ("w", 1))
        assert wp.dirty_snapshot() == {}
        assert wp.stats.sync_fallbacks == 1
        assert cluster.storage.get("hot") == ("w", 1)
        assert cluster.server(replicas[1]).get("hot") == ("w", 1)
        cluster.revive_server(replicas[0], cold=True)
        assert wp.stats.lost_writes == 0


# ---------------------------------------------------------------------------
# ttl


class TestTTL:
    def test_writes_touch_storage_only_and_tick_the_clock(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "ttl", ttl=4)
        client.attach_write_policy(wp)
        client.set("k", ("w", 1))
        assert wp.clock == 1
        assert cluster.storage.get("k") == ("w", 1)
        server = cluster.server_for("k")
        assert server.get("k") is MISSING  # no shard traffic

    def test_shard_copy_expires_after_ttl_ticks(self):
        cluster, _ = build_cluster()
        client = build_client(cluster)
        wp = attach(cluster, "ttl", ttl=3)
        client.attach_write_policy(wp)
        client.get("k")  # backfills + stamps the shard copy
        client.set("k", ("w", 1))  # obsoletes it; copies linger
        client.policy.invalidate("other-reader-stand-in")
        reader = build_client(cluster, client_id="fe-1")
        reader.attach_write_policy(wp)
        assert reader.get("k") == synthesize("k")  # stale but inside ttl
        client.set("x1", 1)
        client.set("x2", 2)  # clock now ttl past the fill stamp
        assert reader.policy.invalidate("k") or True  # drop reader's local
        assert reader.get("k") == ("w", 1)  # expired → refetched fresh
        assert wp.stats.ttl_expirations >= 1

    def test_local_copy_expires_after_ttl_ticks(self):
        cluster, _ = build_cluster()
        writer = build_client(cluster)
        reader = build_client(cluster, client_id="fe-1")
        wp = attach(cluster, "ttl", ttl=2)
        writer.attach_write_policy(wp)
        reader.attach_write_policy(wp)
        assert reader.get("k") == synthesize("k")  # local copy stamped at 0
        writer.set("k", ("w", 1))
        assert reader.get("k") == synthesize("k")  # stale local, inside ttl
        writer.set("y", 1)  # clock = 2 = ttl past the stamp
        value = reader.get("k")
        assert value == ("w", 1)  # local copy expired on touch
        assert wp.stats.ttl_expirations >= 1

    def test_eviction_listener_drops_stamps(self):
        cluster, _ = build_cluster()
        client = build_client(cluster, policy_lines=2)
        wp = attach(cluster, "ttl", ttl=100)
        client.attach_write_policy(wp)
        for i in range(8):  # overflow the 2-line local cache
            client.get(f"k{i}")
        stamps = wp._local_stamps[client.client_id]
        assert set(stamps) == set(client.policy.cached_keys())


# ---------------------------------------------------------------------------
# runner integration


class TestRunnerIntegration:
    def _run(self, mode, **write_kwargs):
        write = None if mode is None else WriteSpec(mode=mode, **write_kwargs)
        spec = ScenarioSpec(
            scale=Scale("wp", key_space=300, accesses=4_000,
                        num_clients=2, num_servers=3),
            workload=WorkloadSpec(dist="zipf-0.9", read_fraction=0.8),
            topology=TopologySpec(write=write),
            seed=23,
        )
        return ClusterRunner().run(spec).telemetry

    def test_default_mode_publishes_no_write_counters(self):
        snapshot = self._run(None)
        assert not [k for k in snapshot.counters if k.startswith("write.")]
        assert not [k for k in snapshot.gauges if k.startswith("write.")]

    def test_write_through_storage_equals_attempted_shard_sets(self):
        snapshot = self._run("write-through")
        writes = snapshot.counters["write.storage_writes"]
        assert writes > 0
        assert snapshot.counters["write.through_writes"] == writes

    def test_write_behind_accounting_balances(self):
        snapshot = self._run("write-behind", dirty_limit=8, flush_every=512)
        c = snapshot.counters
        assert c["write.buffered_writes"] == (
            c["write.flushed_writes"] + c["write.coalesced_writes"]
        )
        assert c["write.lost_writes"] == 0  # no chaos in this run
        assert snapshot.gauges["write.peak_dirty_depth"] <= 8.0

    def test_ttl_mode_expires_and_skips_shard_writes(self):
        snapshot = self._run("ttl", ttl=64)
        assert snapshot.counters["write.ttl_expirations"] > 0
        assert snapshot.counters["write.through_writes"] == 0


# ---------------------------------------------------------------------------
# cost-aware controller


def cost_snapshot(index=0, cache=8, tracker=32, alpha_c=0.5, alpha_k_c=0.5):
    return EpochSnapshot(
        index=index,
        cache_capacity=cache,
        tracker_capacity=tracker,
        imbalance=1.0,
        alpha_c=alpha_c,
        alpha_k_c=alpha_k_c,
        accesses=1_000,
    )


def drain_cost_warmup(ctrl: CostAwareController) -> None:
    """Observe the WARMUP_EPOCHS observation-only epochs that follow
    construction or a resize; each must be a WARMUP decision."""
    for _ in range(WARMUP_EPOCHS):
        decision = ctrl.observe(cost_snapshot(alpha_k_c=10.0))
        assert decision.kind is DecisionKind.WARMUP
        assert not decision.resized
        assert ctrl.phase is CostPhase.WARMUP


def warmed_cost_controller() -> CostAwareController:
    """Break-even 0.05 hits per line per epoch, initial warm-up run out."""
    ctrl = CostAwareController(hit_value=1.0, line_cost=0.05)
    drain_cost_warmup(ctrl)
    return ctrl


class TestCostAwareController:
    def test_validation(self):
        for bad in (dict(hit_value=0), dict(line_cost=0)):
            with pytest.raises(ConfigurationError):
                CostAwareController(**bad)

    def test_warmup_observes_only(self):
        assert WARMUP_EPOCHS == 2
        ctrl = CostAwareController(line_cost=0.05)
        drain_cost_warmup(ctrl)
        assert ctrl.observe(cost_snapshot(alpha_k_c=10.0)).kind is DecisionKind.EXPAND

    def test_expands_while_marginal_lines_pay_rent(self):
        assert TRACKER_RATIO == 4
        ctrl = warmed_cost_controller()
        decision = ctrl.observe(cost_snapshot(alpha_c=0.4, alpha_k_c=0.2))
        assert decision.kind is DecisionKind.EXPAND
        assert decision.cache_capacity == 16
        assert decision.tracker_capacity == 64
        assert ctrl.phase is CostPhase.EXPANDING
        # Warm-up re-arms after the resize.
        drain_cost_warmup(ctrl)
        follow = ctrl.observe(cost_snapshot(cache=16, tracker=64, alpha_k_c=0.2))
        assert follow.kind is DecisionKind.EXPAND

    def test_shrinks_when_average_line_below_break_even(self):
        ctrl = warmed_cost_controller()
        decision = ctrl.observe(cost_snapshot(alpha_c=0.01, alpha_k_c=0.005))
        assert decision.kind is DecisionKind.SHRINK
        assert decision.cache_capacity == 4
        assert ctrl.phase is CostPhase.SHRINKING

    def test_hysteresis_dead_band_holds_steady(self):
        assert HYSTERESIS == 1.25
        ctrl = warmed_cost_controller()
        # Just inside the band on both sides: no resize.
        decision = ctrl.observe(cost_snapshot(alpha_c=0.05, alpha_k_c=0.05))
        assert decision.kind in (DecisionKind.NONE, DecisionKind.DECAY)
        assert not decision.resized
        assert ctrl.phase is CostPhase.STEADY
        # The band's edges: 0.05 * 1.25 to expand, 0.05 / 1.25 to shrink.
        for alpha_c, alpha_k_c in ((0.041, 0.062), (0.05, 0.0624)):
            decision = ctrl.observe(
                cost_snapshot(alpha_c=alpha_c, alpha_k_c=alpha_k_c)
            )
            assert not decision.resized
        assert ctrl.observe(cost_snapshot(alpha_k_c=0.063)).kind is DecisionKind.EXPAND
        drain_cost_warmup(ctrl)
        shrink = ctrl.observe(cost_snapshot(alpha_c=0.039, alpha_k_c=0.0))
        assert shrink.kind is DecisionKind.SHRINK

    def test_decay_when_tracked_outscore_cached(self):
        ctrl = warmed_cost_controller()
        decision = ctrl.observe(cost_snapshot(alpha_c=0.05, alpha_k_c=0.055))
        assert decision.kind is DecisionKind.DECAY
        assert decision.decay

    def test_no_decay_thrash_on_stationary_stream(self):
        # Regression: at steady state a stationary workload keeps
        # alpha_k_c a hair above alpha_c (sampling noise, not staleness).
        # Without a dead band the controller issued DECAY every epoch,
        # halving all hotness continuously. Inside the epsilon band the
        # decision must be NONE, epoch after epoch.
        assert DECAY_EPSILON == 0.05
        ctrl = warmed_cost_controller()
        decays = 0
        for _ in range(50):
            decision = ctrl.observe(
                cost_snapshot(alpha_c=0.050, alpha_k_c=0.0505)
            )
            assert not decision.resized
            decays += decision.kind is DecisionKind.DECAY
        assert decays == 0
        # A genuine Case-2 signal (outside the band, but below the expand
        # threshold of target * hysteresis) still decays.
        breach = ctrl.observe(cost_snapshot(alpha_c=0.05, alpha_k_c=0.06))
        assert breach.kind is DecisionKind.DECAY

    def test_respects_rails(self):
        assert (MIN_CACHE, MAX_CACHE) == (1, 1 << 20)
        ctrl = warmed_cost_controller()
        held = ctrl.observe(
            cost_snapshot(cache=MAX_CACHE, tracker=MAX_CACHE * 4, alpha_k_c=10.0)
        )
        assert not held.resized
        held2 = ctrl.observe(
            cost_snapshot(cache=MIN_CACHE, tracker=4, alpha_c=0.0, alpha_k_c=0.0)
        )
        assert not held2.resized

    def test_drives_elastic_client_end_to_end(self):
        import random

        from repro.core.elastic import ElasticCoTClient

        cluster, _ = build_cluster(num_servers=4)
        ctrl = CostAwareController(hit_value=1.0, line_cost=0.05)
        client = ElasticCoTClient(
            cluster, controller=ctrl, initial_cache=4, initial_tracker=8,
            base_epoch=64,
        )
        rng = random.Random(3)
        for _ in range(8_000):
            k = int(400 * (rng.random() ** 3))
            client.get(f"k{min(k, 399)}")
        assert client.cot.capacity > 4  # skewed traffic earned growth
        phases = {record.phase for record in client.history}
        assert CostPhase.EXPANDING.value in phases
        assert client.history[-1].alpha_target == pytest.approx(0.05)
