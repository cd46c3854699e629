"""Tests for the observability layer: tracing, histograms, export.

Covers the four tentpole surfaces of :mod:`repro.obs`:

* deterministic trace sampling and the span-tree renderer;
* traced-vs-untraced equivalence on the cluster data plane over every
  default-off axis the miss body branches on (tracing observes, it
  never steers), and stages that tile each sampled request;
* exact histogram merging and bounded percentile error;
* Prometheus text-format round-trips (render → parse) covering every
  canonical telemetry counter;
* the golden-output guarantee: a tracer (rate 0 on the simulator,
  *sampling* on the cluster) plus an attached snapshot collector leave
  experiment output byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments  # noqa: F401  (imports register every experiment)
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.backend import BackendCacheServer
from repro.cluster.faults import FaultInjector
from repro.cluster.replication import HotKeyRouter, ReplicationConfig
from repro.cluster.retry import BreakerConfig, ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.cluster.writepolicy import TTLWritePolicy, WriteBehindPolicy
from repro.engine import Scale, get_experiment
from repro.engine import runners as engine_runners
from repro.engine import telemetry as T
from repro.engine.telemetry import TelemetrySnapshot
from repro.errors import ConfigurationError, ExperimentError
from repro.obs.export import (
    PrometheusExporter,
    SnapshotCollector,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.hist import BOUNDS, LatencyHistogram
from repro.obs.trace import Trace, Tracer, render_trace
from repro.policies.registry import make_policy
from repro.workloads.zipfian import ZipfianGenerator

GOLDEN_DIR = Path(__file__).parent / "golden"


class FakeClock:
    """Deterministic clock for span timing tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


# ---------------------------------------------------------------------------
# tracer sampling


class TestTracerSampling:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ConfigurationError):
            Tracer(max_exemplars=0)

    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start("request.get") is None for _ in range(100))
        assert tracer.traces_started == 0

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        traces = [tracer.start("request.get") for _ in range(50)]
        assert all(trace is not None for trace in traces)
        assert tracer.traces_started == 50

    def test_fractional_rate_is_deterministic_and_exact(self):
        tracer = Tracer(sample_rate=0.25)
        sampled = [
            i for i in range(100) if tracer.start("request.get") is not None
        ]
        assert len(sampled) == 25
        # Error-diffusion accumulator: exactly every 4th request.
        assert sampled == list(range(3, 100, 4))
        # A second identically-configured tracer samples the same requests.
        twin = Tracer(sample_rate=0.25)
        assert sampled == [
            i for i in range(100) if twin.start("request.get") is not None
        ]

    def test_inline_gate_matches_start(self):
        """The hot path's inlined credit gate samples identically."""
        reference = Tracer(sample_rate=1.0 / 3.0)
        inlined = Tracer(sample_rate=1.0 / 3.0)
        via_start = [
            i for i in range(60) if reference.start("r") is not None
        ]
        via_gate = []
        for i in range(60):
            inlined.credit += inlined.sample_rate
            if inlined.credit >= 1.0:
                assert inlined.start_sampled("r") is not None
                via_gate.append(i)
        assert via_start == via_gate

    def test_exemplars_keep_slowest_first(self):
        clock = FakeClock()
        tracer = Tracer(sample_rate=1.0, clock=clock, max_exemplars=3)
        for duration in (0.004, 0.001, 0.009, 0.002, 0.007):
            trace = tracer.start("request.get")
            clock.advance(duration)
            tracer.finish(trace)
        durations = [t.duration for t in tracer.exemplars()]
        assert durations == sorted(durations, reverse=True)
        assert len(durations) == 3
        assert durations[0] == pytest.approx(0.009)

    def test_render_slowest_empty(self):
        assert "no traces" in Tracer(sample_rate=1.0).render_slowest()


# ---------------------------------------------------------------------------
# span trees


def assert_stages_tile(trace: Trace) -> list[str]:
    """Stages hang off the root and tile it; returns their names in order."""
    root, stages = trace.spans[0], trace.spans[1:]
    assert all(span.parent == 0 for span in stages)
    assert stages[0].start == root.start
    for before, after in zip(stages, stages[1:]):
        assert before.end == after.start, "gap or overlap between stages"
    assert stages[-1].end == root.end
    assert sum(s.duration for s in stages) == pytest.approx(root.duration)
    return [span.name for span in stages]


class TestSpanTrees:
    def test_stages_tile_the_root(self):
        clock = FakeClock()
        trace = Trace("request.get", clock)
        clock.advance(7e-6)  # before the first mark: still the first stage
        trace.stage("frontend.cache")
        clock.advance(1e-6)
        trace.stage("ring.route")
        clock.advance(2e-6)
        trace.stage("shard.lookup", shard="cache-3")
        clock.advance(4e-6)
        trace.finish()
        assert assert_stages_tile(trace) == [
            "frontend.cache", "ring.route", "shard.lookup",
        ]
        durations = [span.duration for span in trace.spans[1:]]
        assert durations == pytest.approx([8e-6, 2e-6, 4e-6])
        assert trace.duration == pytest.approx(14e-6)
        assert trace.spans[3].meta == {"shard": "cache-3"}

    def test_nested_spans_and_parents(self):
        """``add_span(parent=)`` is what nests: links, children, rendering."""
        trace = Trace("request.get", FakeClock(), at=0.0)
        outer = trace.add_span("net.request", 0.0, 3e-6)
        inner = trace.add_span("shard.service", 1e-6, 3e-6, parent=outer)
        trace.finish(at=3e-6)
        assert [span.name for span in trace.spans] == [
            "request.get", "net.request", "shard.service",
        ]
        assert trace.spans[outer].parent == 0
        assert trace.spans[inner].parent == outer
        assert list(trace.children(outer)) == [inner]
        assert trace.spans[inner].duration == pytest.approx(2e-6)
        assert "   └─ shard.service 2.0µs" in render_trace(trace)

    def test_finish_closes_abandoned_spans(self):
        clock = FakeClock()
        trace = Trace("request.get", clock)
        trace.stage("shard.lookup")  # never followed (exception path)
        clock.advance(5e-6)
        trace.finish()
        assert not math.isnan(trace.spans[1].end)
        assert trace.spans[1].duration == pytest.approx(5e-6)
        assert trace.duration == pytest.approx(5e-6)

    def test_explicit_timestamps(self):
        trace = Trace("request.get", FakeClock(), at=10.0)
        trace.add_span("net.request", 10.0, 10.5, shard="cache-3")
        trace.finish(at=11.0)
        assert trace.duration == pytest.approx(1.0)
        (span,) = trace.find("net.request")
        assert span.meta == {"shard": "cache-3"}

    def test_render_trace_shape(self):
        clock = FakeClock()
        trace = Trace("request.get", clock)
        trace.note("outcome", "miss")
        trace.stage("ring.route")
        clock.advance(2e-6)
        trace.stage("shard.lookup", shard="cache-3")
        clock.advance(1e-3)
        trace.finish()
        text = render_trace(trace)
        lines = text.splitlines()
        assert lines[0].startswith("request.get ")
        assert "outcome=miss" in lines[0]
        assert "├─ ring.route 2.0µs" in text
        assert "└─ shard.lookup" in text and "shard=cache-3" in text


# ---------------------------------------------------------------------------
# traced cluster path: equivalence + span content


def drive(client: FrontEndClient, accesses: int = 2_000) -> list:
    generator = ZipfianGenerator(500, theta=0.99, seed=7)
    keys = [f"usertable:{k}" for k in generator.keys_array(accesses)]
    return [client.get(key) for key in keys]


class TestTracedClusterPath:
    def build(self, tracer, faults=None):
        cluster = CacheCluster(
            num_servers=4, value_size=1, virtual_nodes=512, faults=faults
        )
        policy = make_policy("cot", 64, tracker_capacity=256)
        return FrontEndClient(cluster, policy, tracer=tracer)

    def test_traced_run_matches_untraced_decisions(self):
        plain = self.build(None)
        traced = self.build(Tracer(sample_rate=1.0))
        values_plain = drive(plain)
        values_traced = drive(traced)
        assert values_plain == values_traced
        assert plain.policy.stats.hits == traced.policy.stats.hits
        assert plain.policy.stats.misses == traced.policy.stats.misses
        assert plain.monitor.total_loads() == traced.monitor.total_loads()

    def test_sampled_miss_records_full_span_tree(self):
        tracer = Tracer(sample_rate=1.0)
        client = self.build(tracer)
        client.get("usertable:1")  # cold miss → full fetch pipeline
        trace = tracer.exemplars()[0]
        assert trace.meta["outcome"] == "miss"
        names = {span.name for span in trace.spans}
        assert {
            "request.get",
            "frontend.cache",
            "ring.route",
            "shard.lookup",
            "storage.fallback",
            "shard.backfill",
        } <= names

    def test_hit_trace_is_lean(self):
        tracer = Tracer(sample_rate=1.0)
        client = self.build(tracer)
        client.get("usertable:1")
        client.get("usertable:1")  # now a front-end hit
        hit = next(
            t for t in tracer.exemplars() if t.meta["outcome"] == "hit"
        )
        assert {span.name for span in hit.spans} == {
            "request.get",
            "frontend.cache",
        }

    def test_degraded_read_traced(self):
        faults = FaultInjector(seed=1)
        tracer = Tracer(sample_rate=1.0)
        client = self.build(tracer, faults=faults)
        for server_id in client.cluster.server_ids:
            faults.kill(server_id)
        value = client.get("usertable:9")
        assert value is not None
        degraded = [
            t for t in tracer.exemplars() if t.meta.get("outcome") == "degraded"
        ]
        assert degraded
        assert degraded[0].find("storage.degraded_read")

    def test_rate_zero_tracer_attached_changes_nothing(self):
        plain = self.build(None)
        gated = self.build(Tracer(sample_rate=0.0))
        assert drive(plain) == drive(gated)
        assert plain.policy.stats.hits == gated.policy.stats.hits
        assert gated.tracer.traces_started == 0


# ---------------------------------------------------------------------------
# one path: traced == untraced on every axis the miss body branches on


def axis_client(axis: str, tracer) -> FrontEndClient:
    """A front end with one default-off axis of the miss body switched on."""
    cluster = CacheCluster(
        num_servers=5, value_size=1, virtual_nodes=256,
        faults=FaultInjector(seed=3),
    )
    guard = ClusterGuard(
        cluster.server_ids,
        max_attempts=2,
        breaker=BreakerConfig(failure_threshold=3, cooldown=40.0),
    )
    client = FrontEndClient(
        cluster, make_policy("lru", 4), guard=guard, tracer=tracer
    )
    if axis == "router":
        router = HotKeyRouter(cluster, ReplicationConfig(degree=3))
        for rank in range(6):
            router.promote(f"usertable:{rank}")
        client.attach_router(router, seed=5)
    elif axis in ("ttl", "write-behind"):
        write = (
            TTLWritePolicy(cluster, ttl=16) if axis == "ttl"
            else WriteBehindPolicy(cluster, dirty_limit=4)
        )
        client.attach_write_policy(write)
    return client


def drive_axis(client: FrontEndClient, axis: str, operations: int = 3_000):
    """Zipf gets with every fifth operation a set; ``kill-revive`` takes a
    shard down for the middle third of the stream and revives it cold."""
    generator = ZipfianGenerator(300, theta=0.99, seed=11)
    keys = [f"usertable:{k}" for k in generator.keys_array(operations)]
    victim = client.cluster.server_ids[1]
    values = []
    for i, key in enumerate(keys):
        if axis == "kill-revive" and i == operations // 3:
            client.cluster.kill_server(victim)
        if axis == "kill-revive" and i == 2 * operations // 3:
            client.cluster.revive_server(victim)
        if i % 5 == 4:
            client.set(key, ("written", i))
        else:
            values.append(client.get(key))
    return values


def fingerprint(client: FrontEndClient) -> dict:
    """Every counter a run leaves behind, client side and shard side."""
    cluster = client.cluster
    out = {
        "policy": dataclasses.asdict(client.policy.stats),
        "cached": sorted(client.policy.cached_items()),
        "guard": dataclasses.asdict(client.guard.stats),
        "breakers": [
            (b.opens, b.half_opens, b.closes) for b in client.guard.breakers()
        ],
        "monitor": (
            client.monitor.total_loads(), client.monitor.degraded_by_server()
        ),
        "shards": {
            sid: dataclasses.asdict(cluster.server(sid).stats)
            for sid in cluster.server_ids
        },
        "storage": dataclasses.asdict(cluster.storage.stats),
    }
    if client.router is not None:
        out["router"] = dataclasses.asdict(client.router.stats)
    if client.write_policy is not None:
        out["write"] = dataclasses.asdict(client.write_policy.stats)
    return out


class TestOnePathOnEveryAxis:
    """Sampling a request must not change what the request does.

    There is one miss body, so this holds by construction; the test is
    what keeps a second body from growing back. Each axis is exercised
    for real (the asserts on the plain run say so) at the three rates
    that matter: gate never opens, opens every 100th, always open.
    """

    @pytest.mark.parametrize("rate", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize(
        "axis", ["router", "ttl", "write-behind", "kill-revive"]
    )
    def test_traced_equals_untraced(self, axis, rate):
        plain = axis_client(axis, None)
        traced = axis_client(axis, Tracer(sample_rate=rate))
        values_plain = drive_axis(plain, axis)
        assert drive_axis(traced, axis) == values_plain
        assert fingerprint(traced) == fingerprint(plain)
        assert traced.tracer.traces_started == int(rate * len(values_plain))
        assert traced.tracer.traces_finished == traced.tracer.traces_started
        assert traced._trace is None
        # The axis really ran in the stream being compared.
        if axis == "router":
            assert plain.router.stats.two_choice_reads > 100
            assert plain.router.stats.replica_invalidations > 100
        elif axis == "ttl":
            assert plain.write_policy.stats.ttl_expirations > 50
        elif axis == "write-behind":
            assert plain.write_policy.stats.flushed_writes > 100
        else:
            assert plain.monitor.degraded_reads() > 50
            victim = plain.cluster.server(plain.cluster.server_ids[1])
            assert len(victim) > 0  # wiped by the cold revival, refilled since


class TestStagesOfEachOutcome:
    """What a sampled request records, per outcome, on a hand-stepped clock.

    The clock only moves inside shard and storage calls (2, 3 and 5 µs
    for a shard get, a shard set and a storage get), so each stage's
    duration says which call it contains.
    """

    @pytest.fixture
    def stepped(self, monkeypatch):
        clock = FakeClock()

        def stepping(cls, method, dt):
            original = getattr(cls, method)

            def wrapper(self, *args):
                clock.advance(dt)
                return original(self, *args)

            monkeypatch.setattr(cls, method, wrapper)

        stepping(BackendCacheServer, "get", 2e-6)
        stepping(BackendCacheServer, "set", 3e-6)
        stepping(PersistentStore, "get", 5e-6)
        return clock

    def client(self, clock, faults=None):
        cluster = CacheCluster(
            num_servers=4, value_size=1, virtual_nodes=256, faults=faults
        )
        tracer = Tracer(sample_rate=1.0, clock=clock, max_exemplars=64)
        return FrontEndClient(cluster, make_policy("lru", 2), tracer=tracer)

    def test_layer_miss_then_local_hit_then_layer_hit(self, stepped):
        client = self.client(stepped)
        client.get("usertable:1")
        trace = client.tracer.exemplars()[0]
        assert assert_stages_tile(trace) == [
            "frontend.cache", "ring.route", "shard.lookup",
            "storage.fallback", "shard.backfill", "frontend.admit",
        ]
        assert [round(s.duration * 1e6) for s in trace.spans[1:]] == [
            0, 0, 2, 5, 3, 0,
        ]
        assert trace.meta == {"key": "usertable:1", "outcome": "miss"}
        owner = client.cluster.ring.server_for("usertable:1")
        assert trace.find("shard.lookup")[0].meta == {"shard": owner}
        assert trace.find("shard.backfill")[0].meta == {"shard": owner}

        client.get("usertable:1")  # local hit: the loader never runs
        hit = next(
            t for t in client.tracer.exemplars() if t.meta["outcome"] == "hit"
        )
        assert assert_stages_tile(hit) == ["frontend.cache"]
        assert hit.duration == 0.0

        client.policy.invalidate("usertable:1")  # shard still holds it
        client.get("usertable:1")
        layer_hit = next(
            t for t in client.tracer.exemplars()
            if t.meta["outcome"] == "miss" and t.duration < 3e-6
        )
        assert assert_stages_tile(layer_hit) == [
            "frontend.cache", "ring.route", "shard.lookup", "frontend.admit",
        ]
        assert layer_hit.duration == pytest.approx(2e-6)

    def test_degraded_read(self, stepped):
        faults = FaultInjector(seed=1)
        client = self.client(stepped, faults=faults)
        for server_id in client.cluster.server_ids:
            faults.kill(server_id)
        client.get("usertable:9")
        (trace,) = client.tracer.exemplars()
        assert assert_stages_tile(trace) == [
            "frontend.cache", "ring.route", "shard.lookup",
            "storage.degraded_read", "frontend.admit",
        ]
        # Every attempt on the dead shard is time spent in shard.lookup,
        # and the retry count stays in the trace.
        stats = client.guard.stats
        attempts = stats.operations - stats.open_rejections + stats.retries
        assert trace.find("shard.lookup")[0].duration == (
            pytest.approx(attempts * 2e-6)
        )
        assert trace.meta["retries"] == attempts - 1 >= 1
        assert trace.find("storage.degraded_read")[0].duration == (
            pytest.approx(5e-6)
        )
        assert trace.meta["outcome"] == "degraded"

    def test_replicated_read_is_the_same_stages_on_a_chosen_shard(self, stepped):
        client = self.client(stepped)
        router = HotKeyRouter(client.cluster, ReplicationConfig(degree=3))
        replicas = router.promote("usertable:0")
        client.attach_router(router, seed=2)
        client.get("usertable:0")
        (trace,) = client.tracer.exemplars()
        assert assert_stages_tile(trace) == [
            "frontend.cache", "ring.route", "shard.lookup",
            "storage.fallback", "shard.backfill", "frontend.admit",
        ]
        chosen = trace.find("shard.lookup")[0].meta["shard"]
        assert chosen in replicas
        assert trace.find("shard.backfill")[0].meta == {"shard": chosen}
        assert client.monitor.total_loads()[chosen] == 1
        assert router.stats.replicated_reads == 1
        assert router.stats.two_choice_reads == 1


# ---------------------------------------------------------------------------
# histograms


class TestLatencyHistogram:
    def test_one_bucket_layout(self):
        # 1 µs .. 100 s at ten buckets per decade: the exported ``le`` set
        assert BOUNDS[0] == 1e-6
        assert BOUNDS[-1] == 100.0
        assert len(BOUNDS) == 81
        histogram = LatencyHistogram()
        assert [b for b, _ in histogram.cumulative_buckets()] == [*BOUNDS, math.inf]

    def test_streaming_stats_exact(self):
        histogram = LatencyHistogram()
        for value in (1e-3, 2e-3, 3e-3):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2e-3)
        assert histogram.min_value == 1e-3
        assert histogram.max_value == 3e-3

    def test_percentile_edges(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(50)
        histogram.record(5e-3)
        assert histogram.percentile(0) == pytest.approx(5e-3)
        assert histogram.percentile(100) == pytest.approx(5e-3)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_percentile_within_bucket_width(self):
        histogram = LatencyHistogram()
        values = [1e-4 + i * 1e-6 for i in range(1000)]
        histogram.record_many(values)
        growth = 10.0 ** (1.0 / 10)
        for q in (50, 90, 99):
            exact = values[int(q / 100 * (len(values) - 1))]
            estimate = histogram.percentile(q)
            assert exact / growth <= estimate <= exact * growth

    def test_overflow_and_underflow(self):
        histogram = LatencyHistogram()
        histogram.record(1e-9)  # below range → first bucket
        histogram.record(500.0)  # above range → overflow bucket
        assert histogram.count == 2
        assert histogram.percentile(100) == 500.0
        bounds, counts = zip(*histogram.nonzero_buckets())
        assert counts == (1, 1)
        assert bounds == (BOUNDS[0], math.inf)

    def test_merge_is_exact(self):
        parts = [LatencyHistogram() for _ in range(3)]
        whole = LatencyHistogram()
        for i, histogram in enumerate(parts):
            for j in range(200):
                value = (i + 1) * 1e-4 + j * 1e-6
                histogram.record(value)
                whole.record(value)
        merged = LatencyHistogram.merged(parts)
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert list(merged.cumulative_buckets()) == list(
            whole.cumulative_buckets()
        )
        assert merged.percentile(99) == pytest.approx(whole.percentile(99))

    def test_merged_percentiles_weighted_by_traffic(self):
        """3-client synthetic stream: the busy client dominates the merge."""
        busy = LatencyHistogram()
        busy.record_many([1e-4] * 10_000)
        quiet_a = LatencyHistogram()
        quiet_a.record_many([1e-2] * 50)
        quiet_b = LatencyHistogram()
        quiet_b.record_many([1e-1] * 50)
        merged = LatencyHistogram.merged([busy, quiet_a, quiet_b])
        assert merged.count == 10_100
        growth = 10.0 ** (1.0 / 10)
        # p50 tracks the busy client; p99.9 miss would catch the tail.
        assert merged.percentile(50) <= 1e-4 * growth
        assert merged.percentile(99.9) >= 1e-2 / growth

    def test_merged_empty(self):
        assert LatencyHistogram.merged([]).count == 0

    def test_copy_is_independent(self):
        histogram = LatencyHistogram()
        histogram.record(1e-3)
        clone = histogram.copy()
        clone.record(2e-3)
        assert histogram.count == 1
        assert clone.count == 2

    def test_summary_shape_matches_recorder(self):
        empty = LatencyHistogram().summary()
        assert empty == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0,
        }
        histogram = LatencyHistogram()
        histogram.record_many([1e-3] * 10)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p99", "max"}
        assert summary["count"] == 10


# ---------------------------------------------------------------------------
# one real scenario per default-off axis (the catalogue's sources)


def axis_spec(axis):
    """A small real scenario that switches ``axis`` on (``base``: none)."""
    from repro.core.decay import ExponentialDecay
    from repro.core.elastic import ElasticCoTClient
    from repro.engine import (
        ArbitrationSpec,
        PolicySpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
        WriteSpec,
    )
    from repro.engine.spec import NetworkSpec

    def elastic(cluster, _i):
        return ElasticCoTClient(
            cluster, target_imbalance=1.1, initial_cache=8, initial_tracker=16,
            base_epoch=500, decay=ExponentialDecay(rate=0.9),
        )

    def spec(accesses=3_000, clients=2, dist="zipf-0.9", read_fraction=None,
             topology=None, **fields):
        return ScenarioSpec(
            scale=Scale(f"obs-{axis}", key_space=500, accesses=accesses,
                        num_clients=clients, num_servers=3),
            workload=WorkloadSpec(dist=dist, read_fraction=read_fraction),
            topology=TopologySpec(num_clients=clients, **(topology or {})),
            seed=17,
            **fields,
        )

    if axis == "write":
        write = WriteSpec(mode="write-behind", dirty_limit=4, flush_every=256)
        return spec(read_fraction=0.7, topology={"write": write})
    if axis == "replication":
        router = ReplicationConfig(refresh_every=512, min_share=0.02)
        return spec(accesses=6_000, dist="zipf-1.2", read_fraction=0.9,
                    topology={"replication": router},
                    policy=PolicySpec(name="cot", cache_lines=16, tracker_lines=64))
    if axis == "net":
        return spec(accesses=800, topology={"network": NetworkSpec()})
    if axis == "adaptive":
        arbitration = ArbitrationSpec(epoch_length=512, sample_shift=1)
        return spec(accesses=8_000, clients=1, dist="zipf-1.2", policy=PolicySpec(
            name="lru", cache_lines=64, tracker_lines=256, arbitration=arbitration,
        ))
    if axis == "elastic":
        # One elastic front end with a live decay policy, every read
        # checked against an oracle that is always wrong.
        return spec(accesses=6_000, clients=1, dist="zipf-1.2", client_factory=elastic,
                    interleave=True, verify_value=lambda key: None)
    if axis == "sim":
        faults = FaultInjector(seed=1)
        faults.kill("cache-0")
        return spec(read_fraction=0.9, topology={"faults": faults},
                    requests_per_client=600)
    return spec(policy=PolicySpec(name="lru", cache_lines=32))


#: axis → (runner, the sources whose rows it proves, page series that must be > 0)
AXES = {
    "write": ("ClusterRunner", {"write"},
              ["cot_write_buffered_writes_total", "cot_write_flushed_writes_total"]),
    "replication": ("ClusterRunner", {"router"},
                    ["cot_replication_promotions_total",
                     "cot_replication_replicated_reads_total"]),
    "net": ("ClusterRunner", {"net_client", "net_server", "net_ends"},
            ["cot_net_requests_total", "cot_net_bytes_in_total"]),
    "adaptive": ("PolicyStreamRunner", {"arbiter"}, ["cot_adaptive_epochs_total"]),
    "elastic": ("ClusterRunner", {"elastic", "decay"},
                ["cot_decay_epoch_decays_total", "cot_verify_incorrect_reads_total"]),
    "sim": ("SimRunner", {"policy", "monitor", "guard", "breaker", "sim"},
            ["cot_resilience_degraded_reads_total",
             "cot_resilience_breaker_opens_total"]),
}


@pytest.fixture(scope="module")
def axis_runs():
    """``{axis: (result, the sources its runner filed)}``, each run once."""
    runs = {}
    collect = T.collect
    with pytest.MonkeyPatch.context() as patch:
        for axis, (runner, _sources, _live) in AXES.items():
            filed = {}
            patch.setattr(T, "collect", lambda s, f=filed: f.update(s) or collect(s))
            runs[axis] = getattr(engine_runners, runner)().run(axis_spec(axis)), filed
    return runs


def exported(raw):
    return "cot_" + raw.replace(".", "_")


def catalogue_table():
    """The catalogue as README's Observability section holds it."""
    lines = ["| metric | kind | unit | source | field | help |", "|---|---|---|---|---|---|"]
    lines += [
        f"| `{m.name}` | {m.kind} | {m.unit} | {m.source} | "
        f"{f'`{m.field}`' if m.field else '—'} | {m.help} |"
        for m in T.CATALOGUE
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# prometheus export


def full_snapshot():
    """A snapshot exercising every canonical counter plus extras."""
    canonical = [m.name for m in T.CATALOGUE if m.kind == "counter"]
    latency, depths = LatencyHistogram(), LatencyHistogram()
    latency.record_many(1e-4 + i * 1e-6 for i in range(500))
    for depth, count in {1: 40, 4: 25, 32: 10}.items():
        depths.record_many([float(depth)] * count)
    snapshot = TelemetrySnapshot(
        counters={name: i + 1 for i, name in enumerate(canonical)},
        gauges={"elastic.cache_lines": 512, "run.mean_latency": 2.44e-4},
        shard_loads={"cache-0": 100, "cache-1": 140},
        histograms={T.REQUEST_LATENCY: latency, T.NET_BATCH_DEPTH: depths},
    )
    return snapshot, canonical


class TestPrometheusExport:
    def test_round_trip_covers_all_canonical_counters(self):
        snapshot, canonical = full_snapshot()
        text = render_prometheus(snapshot)
        series = parse_prometheus(text)
        for raw in canonical:
            name = "cot_" + raw.replace(".", "_") + "_total"
            assert name in series, f"{name} missing from export"
            (labels, value) = series[name][0]
            assert labels["run"] == "0"
            assert value == float(canonical.index(raw) + 1)

    def test_round_trip_histogram_is_consistent(self):
        snapshot, _ = full_snapshot()
        series = parse_prometheus(render_prometheus(snapshot))
        buckets = series["cot_request_latency_seconds_bucket"]
        counts = [value for _labels, value in buckets]
        assert counts == sorted(counts), "cumulative buckets must be monotone"
        bounds = [labels["le"] for labels, _value in buckets]
        assert bounds[-1] == "+Inf"
        (_, count) = series["cot_request_latency_seconds_count"][0]
        (_, total) = series["cot_request_latency_seconds_sum"][0]
        assert count == counts[-1] == 500
        histogram = snapshot.histogram(T.REQUEST_LATENCY)
        assert total == pytest.approx(histogram.total)

    def test_gauges_and_shard_loads_round_trip(self):
        snapshot, _ = full_snapshot()
        series = parse_prometheus(render_prometheus(snapshot))
        assert series["cot_elastic_cache_lines"][0][1] == 512.0
        shards = {
            labels["shard"]: value
            for labels, value in series["cot_shard_lookups_total"]
        }
        assert shards == {"cache-0": 100.0, "cache-1": 140.0}

    def test_net_counters_round_trip(self):
        snapshot, canonical = full_snapshot()
        series = parse_prometheus(render_prometheus(snapshot))
        net_names = [raw for raw in canonical if raw.startswith("net.")]
        assert len(net_names) == 10  # every wire counter is canonical
        assert "net.refused" in net_names  # the connection cap's count
        for raw in net_names:
            name = "cot_" + raw.replace(".", "_") + "_total"
            assert name in series, f"{name} missing from export"
            assert series[name][0][1] == float(canonical.index(raw) + 1)

    def test_net_batch_depth_histogram_round_trip(self):
        snapshot, _ = full_snapshot()
        text = render_prometheus(snapshot)
        series = parse_prometheus(text)
        # A depth is not a duration: the suffix and HELP are the row's.
        assert "_seconds" not in "".join(n for n in series if "batch_depth" in n)
        row = T.BY_NAME[T.NET_BATCH_DEPTH]
        assert f"# HELP cot_net_batch_depth {row.help}\n" in text
        assert "# HELP cot_elastic_cache_lines gauge 'elastic.cache_lines'\n" in text
        buckets = series["cot_net_batch_depth_bucket"]
        counts = [value for _labels, value in buckets]
        assert counts == sorted(counts)
        (_, count) = series["cot_net_batch_depth_count"][0]
        (_, total) = series["cot_net_batch_depth_sum"][0]
        assert count == 75  # 40 + 25 + 10 flushes
        histogram = snapshot.histogram(T.NET_BATCH_DEPTH)
        assert total == pytest.approx(histogram.total)
        assert histogram.total == pytest.approx(40 * 1 + 25 * 4 + 10 * 32)

    def test_multiple_snapshots_get_run_labels(self):
        exporter = PrometheusExporter()
        snapshot, _ = full_snapshot()
        exporter.add(snapshot)
        exporter.add(snapshot)
        series = parse_prometheus(exporter.render())
        runs = {labels["run"] for labels, _ in series["cot_policy_hits_total"]}
        assert runs == {"0", "1"}

    def test_help_and_type_emitted_once_per_family(self):
        exporter = PrometheusExporter()
        snapshot, _ = full_snapshot()
        exporter.add(snapshot)
        exporter.add(snapshot)
        text = exporter.render()
        assert text.count("# TYPE cot_policy_hits_total counter") == 1
        assert text.endswith("\n")

    def test_parser_rejects_malformed_input(self):
        with pytest.raises(ExperimentError):
            parse_prometheus("cot_orphan_metric 1")  # no TYPE declared
        with pytest.raises(ExperimentError):
            parse_prometheus(
                "# TYPE cot_x gauge\ncot_x{bad-label=\"1\"} 1"
            )
        with pytest.raises(ExperimentError):
            parse_prometheus("# TYPE cot_x gauge\ncot_x not-a-number")

    def test_empty_exporter_renders_placeholder(self):
        assert "no snapshots" in PrometheusExporter().render()

    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_axis_rows_round_trip_end_to_end(self, axis, axis_runs):
        """Every catalogued row of the axis's sources survives the whole
        chain — stats object → ``collect`` → snapshot → exporter →
        strict parser — with the value the stats object holds after a
        real scenario ran (not a hand-built snapshot)."""
        sources, live = AXES[axis][1:]
        result, filed = axis_runs[axis]
        snapshot = result.telemetry
        series = parse_prometheus(render_prometheus(snapshot))
        now = T.collect({source: filed[source] for source in sources})
        for raw, value in now.counters.items():
            assert series[exported(raw) + "_total"] == [({"run": "0"}, float(value))]
        for raw, value in now.gauges.items():
            assert series[exported(raw)][0][1] == snapshot.gauges[raw]
            # ...and is the object's own reading, the drained buffer aside.
            assert raw == "write.dirty_buffer_depth" or snapshot.gauges[raw] == value
        for raw, histogram in now.histograms.items():
            name = exported(raw) + ("_seconds" if raw == T.REQUEST_LATENCY else "")
            assert series[name + "_count"][0][1] == histogram.count > 0
            assert series[name + "_sum"][0][1] == pytest.approx(histogram.total)
        read = set(now.counters) | set(now.gauges) | set(now.histograms)
        for row in T.CATALOGUE:
            if row.source in sources:
                assert any(n == row.name or n.startswith(row.name + ".") for n in read)
        # The run really exercised the axis: live numbers, not placeholders.
        for name in live:
            assert series[name][0][1] > 0, name
        if axis == "write":
            assert series["cot_write_peak_dirty_depth"][0][1] <= 4.0
        if axis == "adaptive":
            for candidate in result.policy.candidates:
                assert f"cot_adaptive_shadow_hit_rate_{candidate}" in series


    def test_fallback_latency_is_exported_only_where_it_is_measured(self, axis_runs):
        """Only the simulator times a storage fallback: the faulted
        simulated run exports ``latency.fallback_seconds_total`` > 0, and
        every other runner's export has no such series (not a 0 it never
        measured)."""
        name = exported("latency.fallback_seconds_total")
        for axis, (runner, _sources, _live) in AXES.items():
            snapshot = axis_runs[axis][0].telemetry
            series = parse_prometheus(render_prometheus(snapshot))
            if runner == "SimRunner":
                assert series[name][0][1] == snapshot.fallback_latency > 0
            else:
                assert snapshot.fallback_latency is None
                assert name not in series, axis


class TestCatalogue:
    def test_every_row_is_filed_by_some_runner(self, axis_runs):
        filed = {source for _result, sources in axis_runs.values() for source in sources}
        published = {
            name
            for result, _sources in axis_runs.values()
            for name in result.telemetry.counters
        }
        for row in T.CATALOGUE:
            if row.source == "run":  # the runner's own count, not a stats field
                assert row.name in published, row
            else:
                assert row.source in filed, f"no runner files {row.source!r}: {row}"

    def test_kept_constants_name_rows_and_names_agree_on_kind(self):
        names = {row.name for row in T.CATALOGUE}
        for constant in T.__all__:
            value = getattr(T, constant)
            if constant.isupper() and isinstance(value, str):
                assert value in names, f"T.{constant} names no catalogue row"
        kinds = {}
        for row in T.CATALOGUE:
            assert kinds.setdefault(row.name, row.kind) == row.kind, row
            assert row.kind in ("counter", "gauge", "histogram") and row.help

    def test_mid_run_collect_equals_the_end_of_run_snapshot(self):
        """The phase-delta path reads what the publish tail reads: with
        nothing run in between, the two agree counter for counter."""
        from repro.engine import ClusterRunner, Phase

        seen = {}

        def read(context):
            sources = engine_runners._sources(context.front_ends)
            seen.update(T.collect(sources).counters)

        spec = dataclasses.replace(
            axis_spec("base"),
            phases=(Phase("drive", accesses=1_500), Phase("stop", accesses=0, action=read)),
        )
        counters = dict(ClusterRunner().run(spec).telemetry.counters)
        assert counters.pop(T.TOTAL_REQUESTS) == 3_000
        assert counters == seen and seen[T.HITS] > 0

    def test_readme_metric_table_is_the_rendered_catalogue(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        begin, end = "<!-- metric-table:begin -->\n", "<!-- metric-table:end -->"
        committed = readme[readme.index(begin) + len(begin):readme.index(end)]
        assert committed == catalogue_table() + "\n", (
            "README's metric table is stale; between the markers it should read:\n"
            + catalogue_table()
        )


# ---------------------------------------------------------------------------
# telemetry bugfixes


class TestTelemetryFixes:
    def test_max_imbalance_vacuous_default_is_one(self):
        """No epochs closed → vacuously balanced (1.0), matching
        ``load_imbalance``'s convention — not the old impossible 0.0."""
        phase = T.PhaseTelemetry(
            index=0, label="steady", down=(), reads=0, hits=0,
            degraded_reads=0, retries=0, open_rejections=0, breaker_opens=0,
            breaker_closes=0, incorrect_reads=0, start_epoch=0,
            epoch_events=(),
        )
        assert phase.max_imbalance == 1.0

    def test_run_histograms_freeze_into_snapshots(self):
        result = engine_runners.SimRunner().run(axis_spec("sim"))
        snapshot = result.telemetry
        frozen = snapshot.request_latency.count
        result.sim_clients[0].latency_histogram.record(2e-3)
        assert snapshot.request_latency.count == frozen == snapshot.total_requests

    def test_collect_merges_histograms_without_aliasing(self):
        part = LatencyHistogram()
        part.record(1e-3)
        client = SimpleNamespace(latency_histogram=part)
        merged = T.collect({"sim": [client, client]}).histograms[T.REQUEST_LATENCY]
        assert merged.count == 2
        part.record(9.0)  # collect built its own histogram, not an alias
        assert merged.count == 2


def published_runs(runner, spec):
    """``(result, every snapshot the listeners saw)`` for one run."""
    seen = []
    T.add_snapshot_listener(seen.append)
    try:
        return runner().run(spec), seen
    finally:
        T.remove_snapshot_listener(seen.append)


class TestOnePublishTail:
    @pytest.mark.parametrize("runner, axis, phased", [
        ("PolicyStreamRunner", "base", False),
        ("ClusterRunner", "base", False),
        ("ClusterRunner", "base", True),
        ("ClusterRunner", "elastic", False),
        ("ClusterRunner", "elastic", True),
        ("SimRunner", "sim", False),
    ])
    def test_a_run_publishes_its_one_snapshot(self, runner, axis, phased):
        """The parallel replay and ``--metrics-out`` count on this."""
        from repro.engine import Phase

        spec = axis_spec(axis)
        if phased:
            half = Phase("a", accesses=500), Phase("b", accesses=500)
            spec = dataclasses.replace(spec, phases=half)
        result, seen = published_runs(getattr(engine_runners, runner), spec)
        assert len(seen) == 1 and seen[0] is result.telemetry
        if phased:
            telemetry = result.telemetry
            assert [phase.label for phase in telemetry.phases] == ["a", "b"]
            events = [e for phase in telemetry.phases for e in phase.epoch_events]
            assert list(telemetry.epoch_events) == events
            incorrect = sum(phase.incorrect_reads for phase in telemetry.phases)
            assert telemetry.incorrect_reads == incorrect

    def test_latency_scalars_are_read_off_the_request_histogram(self):
        telemetry = engine_runners.SimRunner().run(axis_spec("sim")).telemetry
        histogram = telemetry.request_latency
        assert telemetry.total_requests > 0
        assert telemetry.mean_latency == histogram.total / telemetry.total_requests
        assert telemetry.p50_latency == histogram.percentile(50)
        assert telemetry.p99_latency == histogram.percentile(99)

    def test_untimed_runs_read_zero_latency(self):
        telemetry = engine_runners.ClusterRunner().run(axis_spec("base")).telemetry
        assert telemetry.request_latency is None
        assert telemetry.mean_latency == telemetry.p50_latency == 0.0
        assert telemetry.p99_latency == 0.0


# ---------------------------------------------------------------------------
# golden outputs stay byte-identical under observation


def traced_rendered_output(experiment_id: str, tracer: Tracer, monkeypatch):
    """Run an experiment with ``tracer`` injected into every spec."""
    for runner_cls in (
        engine_runners.PolicyStreamRunner,
        engine_runners.ClusterRunner,
        engine_runners.SimRunner,
    ):
        original = runner_cls.run

        def wrapper(self, spec, _original=original):
            return _original(self, dataclasses.replace(spec, tracer=tracer))

        monkeypatch.setattr(runner_cls, "run", wrapper)
    # The patched ``run`` exists in this process only; the fabric fans out
    # to workers only inside a ``parallel_workers`` scope, and none is open.
    outcome = get_experiment(experiment_id).run(scale=Scale.smoke())
    results = outcome if isinstance(outcome, list) else [outcome]
    return "\n\n".join(result.render() for result in results) + "\n"


class TestObservationIsInert:
    @pytest.mark.parametrize(
        "experiment_id, sample_rate",
        [pytest.param("fig6", 0.0, id="fig6"), pytest.param("table2", 0.01, id="table2")],
    )
    def test_golden_output_with_rate0_tracer_and_collector(
        self, experiment_id, sample_rate, monkeypatch
    ):
        """Golden bytes under observation (the name predates the sampled case).

        ``fig6`` (simulator) keeps a rate-0 tracer. ``table2`` drives the
        live cluster path with one request in a hundred *sampled*: with
        one miss body the traced requests run the very calls the
        untraced ones do, so the rendered bytes cannot move.
        """
        golden = (GOLDEN_DIR / f"{experiment_id}.smoke.txt").read_text(
            encoding="utf-8"
        )
        tracer = Tracer(sample_rate=sample_rate)
        with SnapshotCollector() as collector:
            rendered = traced_rendered_output(
                experiment_id, tracer, monkeypatch
            )
        assert rendered == golden
        assert (tracer.traces_started > 0) == (sample_rate > 0)
        assert tracer.traces_finished == tracer.traces_started
        assert collector.snapshots, "collector saw no snapshots"
        # The collected telemetry renders as parseable exposition text.
        series = parse_prometheus(collector.render())
        assert any(name.endswith("_total") for name in series)
