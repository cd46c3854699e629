"""Parallel fabric: seed derivation, worker-count invariance, merge.

The fabric's contract is that parallelism is *unobservable* in outputs:
``--parallel 1``, ``--parallel 2`` and ``--parallel 4`` must render the
same bytes and publish the same telemetry, and a runner called directly
runs one scenario in this process whatever the fabric is set to. These
tests pin that contract, plus the SplitMix64 seed-derivation primitive
and the per-process zeta memo behavior the spawn path relies on.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from repro.cluster.cluster import CacheCluster
from repro.cluster.replication import ReplicationConfig
from repro.engine import (
    ClusterRunner,
    Phase,
    PolicySpec,
    Scale,
    ScenarioSpec,
    SimRunner,
    StreamHooks,
    TopologySpec,
    WorkloadSpec,
    WriteSpec,
)
from repro.engine.parallel import (
    map_calls,
    map_specs,
    parallel_workers,
    warm_pool,
)
from repro.engine.spec import NetworkSpec, spawn_safe
from repro.errors import ConfigurationError
from repro.obs.export import SnapshotCollector
from repro.workloads.seeding import derive_seeds, spawn_seed
from repro.workloads.zipfian import zeta
import repro.workloads.zipfian as zipfian_mod

from repro.experiments.fig4_hit_rates import run as fig4_run


WORKER_COUNTS = (1, 2, 4)


# --------------------------------------------------------------------------
# seed derivation


class TestSpawnSeed:
    def test_same_task_same_seed(self):
        assert spawn_seed(42, 7) == spawn_seed(42, 7)

    def test_distinct_tasks_distinct_seeds(self):
        seeds = derive_seeds(42, 1000)
        assert len(set(seeds)) == 1000

    def test_distinct_roots_distinct_seeds(self):
        a = derive_seeds(1, 100)
        b = derive_seeds(2, 100)
        assert not set(a) & set(b)

    def test_64_bit_range(self):
        for seed in derive_seeds(123456789, 200):
            assert 0 <= seed < (1 << 64)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed(42, -1)

    def test_streams_are_independent(self):
        """Adjacent task indices must yield uncorrelated RNG streams."""
        streams = [
            random.Random(spawn_seed(42, i)).random() for i in range(100)
        ]
        assert len(set(streams)) == 100
        # Crude avalanche check: adjacent seeds differ in many bits.
        a, b = spawn_seed(42, 0), spawn_seed(42, 1)
        assert bin(a ^ b).count("1") > 10


# --------------------------------------------------------------------------
# zeta memo across processes


class TestZetaSpawnSafety:
    def test_spawned_workers_agree_with_parent(self):
        """Two spawned workers compute the same zeta as the parent."""
        expected = zeta(5_000, 0.99)
        with parallel_workers(2):
            values = map_calls(zeta, [(5_000, 0.99)] * 4)
        assert values == [expected] * 4

    def test_memo_resets_when_pid_changes(self):
        """A forked child must not trust (or mutate) the parent's memo."""
        zeta(100, 0.75)  # populate
        assert (100, 0.75) in zipfian_mod._ZETA_MEMO
        original = zipfian_mod._ZETA_MEMO_OWNER
        try:
            zipfian_mod._ZETA_MEMO_OWNER = original - 1  # fake "other process"
            zipfian_mod._ZETA_MEMO[(100, 0.75)] = -1.0  # junk to be dropped
            assert zeta(100, 0.75) > 0  # recomputed, not the junk value
            assert zipfian_mod._ZETA_MEMO_OWNER == original  # reclaimed
        finally:
            zipfian_mod._ZETA_MEMO_OWNER = original
            zipfian_mod._ZETA_MEMO.pop((100, 0.75), None)


# --------------------------------------------------------------------------
# worker-count invariance


def _render(outcome) -> str:
    results = outcome if isinstance(outcome, list) else [outcome]
    return "\n\n".join(result.render() for result in results) + "\n"


class TestWorkerCountInvariance:
    def test_fig4_bytes_and_snapshots_invariant(self):
        """One registered sweep: identical bytes and telemetry at 1/2/4."""
        rendered: dict[int, str] = {}
        snapshots: dict[int, list] = {}
        for workers in WORKER_COUNTS:
            collector = SnapshotCollector().install()
            try:
                with parallel_workers(workers):
                    # The pool really starts: a fabric that quietly fell
                    # back in-process would pass every comparison below.
                    assert workers == 1 or warm_pool() == workers
                    outcome = fig4_run(
                        theta=0.99, scale=Scale.tiny(), sizes=[2, 8]
                    )
            finally:
                collector.uninstall()
            rendered[workers] = _render(outcome)
            snapshots[workers] = list(collector.snapshots)
        base = WORKER_COUNTS[0]
        for workers in WORKER_COUNTS[1:]:
            assert rendered[workers] == rendered[base]
            assert snapshots[workers] == snapshots[base]
        assert snapshots[base]  # non-empty: the sweep really published

    def test_map_calls_preserves_input_order(self):
        with parallel_workers(4):
            values = map_calls(_square, [(i,) for i in range(10)])
        assert values == [i * i for i in range(10)]

    def test_unpicklable_tasks_fall_back_in_process(self):
        """Closures can't cross process boundaries; they still run."""
        closure_spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(dist="zipf-0.99"),
            policy=PolicySpec(name="lru", cache_lines=8),
            hooks=StreamHooks(before=lambda i: None),
        )
        assert not spawn_safe(closure_spec)
        with parallel_workers(2):
            snaps = map_specs("policy", [closure_spec, closure_spec])
        assert len(snaps) == 2 and snaps[0] == snaps[1]

    def test_unknown_runner_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            map_specs("warp", [])

    def test_stdin_main_falls_back_in_process(self, monkeypatch):
        """A ``python - <<EOF`` main can't cross spawn; the fabric detects it."""
        import sys

        from repro.engine import parallel as parallel_mod

        class _StdinMain:
            __file__ = "<stdin>"

        assert parallel_mod._main_spawn_safe()  # pytest's main is a real file
        monkeypatch.setitem(sys.modules, "__main__", _StdinMain())
        assert not parallel_mod._main_spawn_safe()
        with parallel_workers(2):
            assert parallel_mod.warm_pool() == 1  # refuses to spawn
            values = map_calls(_square, [(i,) for i in range(4)])
        assert values == [0, 1, 4, 9]  # ran in-process, same results


def _square(x: int) -> int:
    return x * x


# --------------------------------------------------------------------------
# a runner called directly ignores the fabric


_MIXED = WorkloadSpec(dist="zipf-0.99", read_fraction=0.5)


def _no_client(cluster, index):  # never called: the run is rejected first
    raise AssertionError


def _cluster_spec() -> ScenarioSpec:
    return ScenarioSpec(
        scale=Scale.tiny(),
        workload=WorkloadSpec(dist="zipf-0.99"),
        policy=PolicySpec(name="cot", cache_lines=64, tracker_lines=256),
    )


class TestRunnersIgnoreTheFabric:
    def test_cluster_runner_returns_live_objects_when_fanned_out(self):
        """``run()`` hands back the objects it drove at any worker count."""
        spec = _cluster_spec()
        sequential = ClusterRunner().run(spec).telemetry
        with parallel_workers(2):
            result = ClusterRunner().run(spec)
        assert result.telemetry == sequential
        assert len(result.front_ends) == spec.num_clients >= 2
        assert result.cluster is not None
        assert sum(result.cluster.loads().values()) == result.telemetry.misses




# --------------------------------------------------------------------------
# a spec means the same thing whichever order runs it


class TestOneSpecOneMeaning:
    def test_round_robin_honours_a_mixed_workload(self):
        """``read_fraction`` means the same in either order."""
        mixed = replace(_cluster_spec(), workload=_MIXED)
        result = ClusterRunner().run(replace(mixed, interleave=True))
        assert result.cluster.storage.stats.writes > 0
        # One front end: round-robin is the sequential run, counter for counter.
        alone = replace(mixed, topology=TopologySpec(num_clients=1))
        sequential = ClusterRunner().run(alone)
        round_robin = ClusterRunner().run(replace(alone, interleave=True))
        assert round_robin.telemetry == sequential.telemetry
        assert round_robin.cluster.storage.stats == sequential.cluster.storage.stats

    def test_phases_carry_every_elastic_front_ends_epochs(self):
        """Two elastic front ends, two phases: no client's records are
        skipped by another's cursor, and each phase holds its own."""
        from repro.core.elastic import ElasticCoTClient

        def elastic(cluster, _i):
            return ElasticCoTClient(
                cluster, target_imbalance=1.1, initial_cache=8,
                initial_tracker=16, base_epoch=500,
            )

        spec = replace(
            _cluster_spec(), client_factory=elastic, interleave=True,
            topology=TopologySpec(num_clients=2),
        )
        half = spec.total_accesses // 4  # per client, per phase
        unphased = ClusterRunner().run(spec)
        phased = ClusterRunner().run(
            replace(spec, phases=(Phase("a", accesses=half), Phase("b", accesses=half)))
        )
        histories = [client.history for client in phased.front_ends]
        assert all(histories) and len(histories) == 2
        total = sum(map(len, histories))
        snapshot = phased.telemetry
        assert len(unphased.telemetry.epoch_events) == total
        assert len(snapshot.epoch_events) == total
        first, second = snapshot.phases
        assert first.epoch_events + second.epoch_events == snapshot.epoch_events
        # `start_epoch` keeps its meaning: client 0's epoch index at the switch.
        in_first = {id(record) for record in first.epoch_events}
        assert first.start_epoch == 0
        assert second.start_epoch == sum(id(r) in in_first for r in histories[0]) > 0

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_a_warmup_fraction_outside_the_unit_interval_is_rejected(self, fraction):
        # Round-robin resets the epoch window when its round count reaches
        # the warm-up, which such a fraction never lets it reach.
        spec = replace(_cluster_spec(), interleave=True, warmup_fraction=fraction)
        with pytest.raises(ConfigurationError, match="`warmup_fraction`"):
            ClusterRunner().run(spec)

    def test_warmup_resets_the_epoch_window_once_across_phases(self, monkeypatch):
        resets = []
        reset_epoch = CacheCluster.reset_epoch

        def counting_reset(cluster):
            resets.append(cluster.total_lookups())
            reset_epoch(cluster)

        monkeypatch.setattr(CacheCluster, "reset_epoch", counting_reset)
        spec = replace(
            _cluster_spec(),
            phases=(Phase("a", accesses=3_000), Phase("b", accesses=3_000)),
            warmup_fraction=0.4,  # of 10,000 rounds per client: inside phase b
        )
        snapshot = ClusterRunner().run(spec).telemetry
        assert len(resets) == 1
        assert 0 < sum(snapshot.epoch_shard_loads.values()) < sum(
            snapshot.shard_loads.values()
        )

    @pytest.mark.parametrize(
        "runner, field, overrides",
        [
            pytest.param(ClusterRunner, "verify_value", {"verify_value": str},
                         id="sequential-verify_value"),
            pytest.param(ClusterRunner, "warmup_fraction", {"warmup_fraction": 0.5},
                         id="sequential-warmup_fraction"),
            pytest.param(ClusterRunner, "verify_value",
                         {"verify_value": str, "interleave": True, "workload": _MIXED},
                         id="mixed-verify_value"),
            pytest.param(ClusterRunner, "Phase.dist",
                         {"phases": (Phase("x", dist="uniform"),), "workload": _MIXED},
                         id="mixed-Phase.dist"),
            pytest.param(
                SimRunner, "topology.replication",
                {"topology": TopologySpec(replication=ReplicationConfig())},
                id="sim-replication",
            ),
            pytest.param(
                SimRunner, "topology.write",
                {"topology": TopologySpec(write=WriteSpec(mode="write-behind"))},
                id="sim-write",
            ),
            pytest.param(SimRunner, "topology.network",
                         {"topology": TopologySpec(network=NetworkSpec())},
                         id="sim-network"),
            pytest.param(SimRunner, "phases", {"phases": (Phase("a"),)},
                         id="sim-phases"),
            pytest.param(SimRunner, "client_factory", {"client_factory": _no_client},
                         id="sim-client_factory"),
            pytest.param(SimRunner, "interleave", {"interleave": True},
                         id="sim-interleave"),
            pytest.param(SimRunner, "verify_value", {"verify_value": str},
                         id="sim-verify_value"),
            pytest.param(SimRunner, "warmup_fraction", {"warmup_fraction": 0.5},
                         id="sim-warmup_fraction"),
        ],
    )
    def test_a_field_the_order_cannot_honour_is_rejected(
        self, runner, field, overrides
    ):
        spec = replace(_cluster_spec(), requests_per_client=10, **overrides)
        with pytest.raises(ConfigurationError, match=re.escape(f"`{field}`")):
            runner().run(spec)
