"""Tests for the discrete-event simulation substrate (Figures 5-6)."""

from __future__ import annotations

import pytest

from repro.cluster.faults import FaultInjector
from repro.cluster.storage import PersistentStore
from repro.engine import (
    ClusterRunner,
    PolicySpec,
    Scale,
    ScenarioSpec,
    SimRunner,
    TopologySpec,
    WorkloadSpec,
)
from repro.errors import ConfigurationError, SimulationError
from repro.obs.trace import Tracer
from repro.policies.lru import LRUCache
from repro.policies.nullcache import NullCache
from repro.sim.events import Simulator
from repro.sim.network import FixedLatency, PAPER_RTT
from repro.sim.server import ServiceModel, SimBackendServer
from repro.workloads.mixer import OperationMixer
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator


class TestSimulator:
    def test_event_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(1.0, lambda: order.append("early-2"))
        end = sim.run()
        assert order == ["early", "early-2", "late"]
        assert end == 2.0
        assert sim.processed_events == 3

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(0.5, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        hit = []
        sim.schedule_at(3.0, lambda: hit.append(sim.now))
        sim.run()
        assert hit == [3.0]

    def test_event_budget(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(1e-3)
        assert model.rtt() == 1e-3
        assert model.one_way() == 5e-4

    def test_fixed_default_is_paper_rtt(self):
        assert FixedLatency().rtt() == PAPER_RTT

    def test_fixed_validation(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(-1.0)


class TestSimBackendServer:
    def test_fcfs_serialization(self):
        sim = Simulator()
        model = ServiceModel(
            base_service_time=1.0, thrash_factor=0.0, load_penalty=0.0
        )
        server = SimBackendServer("s", model, fair_share=1.0)
        done = []
        server.submit(sim, lambda: done.append(sim.now))
        server.submit(sim, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0]

    def test_thrashing_inflates_service(self):
        sim = Simulator()
        model = ServiceModel(
            base_service_time=1.0,
            thrash_threshold=1,
            thrash_factor=1.0,
            load_penalty=0.0,
        )
        server = SimBackendServer("s", model, fair_share=1.0)
        done = []
        for _ in range(3):
            server.submit(sim, lambda: done.append(sim.now))
        sim.run()
        # 1st: queue=1 -> 1s; 2nd: queue=2 -> 2s; 3rd: queue=3 -> 3s.
        assert done == [1.0, 3.0, 6.0]

    def test_load_penalty_applies_to_hot_share(self):
        sim = Simulator()
        model = ServiceModel(
            base_service_time=1.0, thrash_factor=0.0, load_penalty=1.0
        )
        total = [0]
        hot = SimBackendServer("hot", model, fair_share=0.5)
        cold = SimBackendServer("cold", model, fair_share=0.5)
        hot.bind_total_counter(total)
        cold.bind_total_counter(total)
        finish = {}
        for _ in range(3):
            hot.submit(sim, lambda: None)
        cold.submit(sim, lambda: None)
        sim.run()
        # hot served 3/4 of arrivals against a 1/2 fair share -> slowed.
        assert hot.share() == pytest.approx(0.75)
        assert hot.busy_time > cold.busy_time

    def test_utilization(self):
        sim = Simulator()
        model = ServiceModel(base_service_time=1.0, thrash_factor=0.0,
                             load_penalty=0.0)
        server = SimBackendServer("s", model, fair_share=1.0)
        server.submit(sim, lambda: None)
        end = sim.run()
        assert server.utilization(end) == pytest.approx(1.0)

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceModel(base_service_time=0)
        with pytest.raises(ConfigurationError):
            ServiceModel(thrash_factor=-1)


class TestEndToEnd:
    def make_spec(self, dist, policy_factory, clients=4, reqs=500):
        def mixer(i):
            if dist == "uniform":
                gen = UniformGenerator(2_000, seed=100 + i)
            else:
                gen = ZipfianGenerator(2_000, theta=dist, seed=100 + i)
            return OperationMixer(gen, seed=200 + i)

        return ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(mixer_factory=mixer),
            policy=PolicySpec(factory=policy_factory),
            topology=TopologySpec(num_servers=4, num_clients=clients),
            requests_per_client=reqs,
        )

    def run(self, *args, **kwargs):
        return SimRunner().run(self.make_spec(*args, **kwargs))

    def test_validation(self):
        spec = self.make_spec("uniform", lambda i: NullCache(), clients=0)
        with pytest.raises(ConfigurationError):
            SimRunner().run(spec)

    def test_all_requests_complete(self):
        telemetry = self.run("uniform", lambda i: NullCache()).telemetry
        assert telemetry.total_requests == 4 * 500
        assert telemetry.runtime > 0
        assert telemetry.throughput > 0

    def test_skew_slower_than_uniform_without_cache(self):
        uniform = self.run("uniform", lambda i: NullCache()).telemetry
        skewed = self.run(1.2, lambda i: NullCache()).telemetry
        assert skewed.runtime > uniform.runtime
        assert skewed.backend_imbalance > uniform.backend_imbalance

    def test_front_end_cache_cuts_skewed_runtime(self):
        no_cache = self.run(1.2, lambda i: NullCache()).telemetry
        cached = self.run(1.2, lambda i: LRUCache(64)).telemetry
        assert cached.runtime < no_cache.runtime
        assert cached.hit_rate > 0.2
        assert cached.backend_imbalance < no_cache.backend_imbalance

    def test_mean_latency_positive(self):
        telemetry = self.run("uniform", lambda i: NullCache()).telemetry
        assert telemetry.mean_latency > PAPER_RTT / 2

    def test_write_path_executes(self):
        def mixer(i):
            gen = UniformGenerator(100, seed=i)
            return OperationMixer(gen, read_fraction=0.5, seed=300 + i)

        spec = ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(mixer_factory=mixer),
            policy=PolicySpec(factory=lambda i: LRUCache(16)),
            topology=TopologySpec(num_servers=2, num_clients=2),
            requests_per_client=200,
        )
        result = SimRunner().run(spec)
        assert result.telemetry.total_requests == 400
        assert result.cluster.storage.stats.writes > 0


class TestOneProtocol:
    """The simulator runs ``FrontEndClient``; these fail if it stops."""

    @staticmethod
    def spec(read_fraction, policy=None, tracer=None, **topology):
        def mixer(cid):
            return OperationMixer(
                ZipfianGenerator(2_000, theta=0.99, seed=7 + cid),
                read_fraction=read_fraction,
                seed=70 + cid,
            )

        # One shared mixer_factory: the two runners' default mixers differ
        # in seed offset, and the simulator's defaults to the TAO mix.
        return ScenarioSpec(
            scale=Scale.tiny(),
            workload=WorkloadSpec(mixer_factory=mixer),
            policy=policy
            or PolicySpec(name="cot", cache_lines=32, tracker_lines=128),
            topology=TopologySpec(num_servers=4, num_clients=1, **topology),
            accesses=3_000,
            tracer=tracer,
        )

    @pytest.mark.parametrize("read_fraction", [1.0, 0.5])
    def test_sim_and_cluster_runners_leave_identical_state(self, read_fraction):
        sim = SimRunner().run(self.spec(read_fraction))
        live = ClusterRunner().run(self.spec(read_fraction))
        assert sim.telemetry.total_requests == live.telemetry.total_requests == 3_000
        assert sim.policy.stats == live.policy.stats
        assert sim.cluster.storage.stats == live.cluster.storage.stats
        for server_id in live.cluster.server_ids:
            ours = sim.cluster.server(server_id).stats
            theirs = live.cluster.server(server_id).stats
            assert ours == theirs, server_id
            assert ours.gets == sim.servers[server_id].arrivals - ours.deletes
        if read_fraction < 1.0:
            assert live.cluster.storage.stats.writes > 1_000

    def test_killed_shard_degrades_through_the_guard(self):
        storage = PersistentStore()
        reads = []

        class Recording(LRUCache):
            def get_or_admit(self, key, loader):
                value = super().get_or_admit(key, loader)
                reads.append((value, storage.get(key)))
                return value

        faults = FaultInjector(seed=1)
        faults.kill("cache-0")
        policy = PolicySpec(factory=lambda cid: Recording(32))
        result = SimRunner().run(
            self.spec(0.8, policy=policy, faults=faults, storage=storage)
        )
        telemetry = result.telemetry
        assert len(reads) > 2_000
        assert all(value == stored for value, stored in reads)
        (client,) = result.sim_clients
        guard = client.front_end.guard.stats
        # Bounded retries, then the breaker: later reads of the dead
        # shard's keys fail fast and charge no hop to its timing model.
        assert guard.retries > 0 and guard.open_rejections > 0
        assert result.servers["cache-0"].arrivals == 0
        assert telemetry.degraded_reads == client.front_end.monitor.degraded_reads() > 0
        assert telemetry.failed_invalidations == guard.lost_invalidations > 0
        assert telemetry.fallback_latency == client.fallback_latency_sum > 0.0

    @pytest.mark.parametrize("kill", [False, True])
    def test_sampled_spans_tile_the_request_on_simulated_time(self, kill):
        faults = FaultInjector(seed=1)
        if kill:
            faults.kill("cache-0")
        tracer = Tracer(sample_rate=1.0, max_exemplars=3_000)
        result = SimRunner().run(self.spec(0.8, tracer=tracer, faults=faults))
        traces = tracer.exemplars()
        assert len(traces) == 3_000 == tracer.traces_finished
        outcomes = {trace.meta.get("outcome") for trace in traces}
        assert {"hit", "miss", "layer_miss"} <= outcomes
        assert ("degraded" in outcomes) == ("lost_invalidation" in outcomes) == kill
        runtime = result.telemetry.runtime
        total = 0.0
        for trace in traces:
            root = trace.root
            assert 0.0 <= root.start < root.end <= runtime  # simulated, not wall
            stages = trace.spans[1:]
            assert stages[0].name in ("frontend.lookup", "storage.write")
            assert stages[0].start == root.start and stages[-1].end == root.end
            for before, after in zip(stages, stages[1:]):
                assert after.start == before.end, (before, after)
            total += root.duration
        # A closed loop: the one client's requests tile its whole run.
        assert total == pytest.approx(runtime)
