"""Pluggable scenario runners behind one :class:`Runner` protocol.

Three runners interpret :class:`~repro.engine.spec.ScenarioSpec`s, one
per execution substrate:

* :class:`PolicyStreamRunner` — a bare policy against a key stream (the
  hit-rate setting of Figure 4 and the appendix);
* :class:`ClusterRunner` — N front ends over one shared cluster
  (Figures 3, 7, 8, Table 2 and the chaos extension);
* :class:`SimRunner` — the discrete-event testbed with closed-loop
  clients, FCFS shard queues and network latency (Figures 5-6), running
  the same :class:`~repro.cluster.client.FrontEndClient` over a
  :class:`~repro.sim.plane.SimPlane`.

The last two are *source · cadence · order*: one request source per
client, one cadence tick per run, and an order over them — sequential or
round-robin in :class:`ClusterRunner`, the event heap in
:class:`SimRunner`; a set spec field the order cannot honour raises
:class:`~repro.errors.ConfigurationError`. A runner runs in the calling
process, publishes into a typed :class:`~repro.engine.telemetry.TelemetryBus`
and returns the live objects it drove (fan-out is
:mod:`repro.engine.parallel`'s job). The chunk size and seed offsets are
contract: they keep every experiment byte-identical
(``tests/test_golden_outputs.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.replication import HotKeyRouter
from repro.core.elastic import ElasticCoTClient
from repro.engine import telemetry as T
from repro.engine.spec import Phase, RunContext, ScenarioSpec, WorkloadSpec
from repro.engine.telemetry import PhaseTelemetry, TelemetryBus, TelemetrySnapshot
from repro.errors import ConfigurationError
from repro.obs.hist import LatencyHistogram
from repro.policies.adaptive import AdaptiveArbiter
from repro.policies.base import MISSING, CachePolicy
from repro.sim.client import SimClient
from repro.sim.events import Simulator
from repro.sim.network import FixedLatency
from repro.sim.server import ServiceModel, SimBackendServer
from repro.workloads.base import format_key
from repro.workloads.mixer import TAO_READ_FRACTION, OperationMixer

__all__ = [
    "STREAM_CHUNK",
    "ClusterRunner",
    "PolicyStreamRunner",
    "Runner",
    "ScenarioResult",
    "SimRunner",
]

#: Keys drawn/driven per batch by the streaming drive paths: large enough
#: to amortize per-chunk overhead, small enough to keep the materialized
#: key lists cache- and memory-friendly at paper scale.
STREAM_CHUNK = 16_384

#: Seed offsets separating a client's operation-mix stream from its key
#: stream (cluster and sim paths draw from historically distinct offsets;
#: both are part of the reproducibility contract).
CLUSTER_MIXER_SEED_OFFSET = 1_000
SIM_MIXER_SEED_OFFSET = 500

#: Seed offset separating a front end's replica-choice RNG from its key
#: and mixer streams (replication-enabled runs only).
REPLICA_ROUTE_SEED_OFFSET = 2_000


def _batches(
    draw: Callable[[int], Iterable[Any]], total: int
) -> Iterator[Iterable[Any]]:
    """``total`` operations from ``draw``, :data:`STREAM_CHUNK` at a time.

    ``keys_array`` / ``next_requests`` are stream-identical to
    one-at-a-time draws at any chunk size (their documented contract), so
    chained batches — taken one operation per round-robin round or per
    simulated request — are the very stream the batch form iterates.
    """
    while total > 0:
        n = STREAM_CHUNK if total > STREAM_CHUNK else total
        yield draw(n)
        total -= n


def _build_cluster(spec: ScenarioSpec) -> CacheCluster:
    """The shared back-end cluster a spec's topology describes."""
    topology = spec.topology
    return CacheCluster(
        num_servers=spec.num_servers,
        capacity_bytes=topology.capacity_bytes,
        value_size=topology.value_size,
        storage=topology.storage,
        faults=topology.faults,
    )


def _build_mixer(spec: ScenarioSpec, client_index: int, seed_offset: int) -> Any:
    """One client's operation stream: ``mixer_factory``'s, else a mixer
    seeded ``seed_offset`` from its key stream (no ``read_fraction``: Tao's)."""
    workload = spec.workload
    if workload.mixer_factory is not None:
        return workload.mixer_factory(client_index)
    read_fraction = workload.read_fraction
    return OperationMixer(
        workload.build_generator(spec.scale.key_space, spec.base_seed, client_index),
        read_fraction=TAO_READ_FRACTION if read_fraction is None else read_fraction,
        seed=spec.base_seed + seed_offset + client_index,
    )


def _reject(spec: ScenarioSpec, why: str, *fields: str) -> None:
    """Raise for the first of ``fields`` that is set: the run could only
    ignore it (each one's default is falsy)."""
    for name in fields:
        if attrgetter(name)(spec):
            raise ConfigurationError(f"`{name}` is set, but {why}")


@dataclass
class ScenarioResult:
    """What a runner hands back: typed telemetry plus the live objects.

    ``telemetry`` is the reporting surface; the live objects (policies,
    front ends, cluster, sim clients) stay available for deep inspection
    in tests and ablations.
    """

    spec: ScenarioSpec
    telemetry: TelemetrySnapshot
    policies: list[CachePolicy] = field(default_factory=list)
    cluster: CacheCluster | None = None
    front_ends: list[FrontEndClient] = field(default_factory=list)
    sim_clients: list[SimClient] = field(default_factory=list)
    servers: dict[str, SimBackendServer] = field(default_factory=dict)

    @property
    def policy(self) -> CachePolicy:
        """The single policy of a one-client scenario."""
        return self.policies[0]

    @property
    def front_end(self) -> FrontEndClient:
        """The single front end of a one-client scenario."""
        return self.front_ends[0]


@runtime_checkable
class Runner(Protocol):
    """Anything that can execute a :class:`ScenarioSpec`."""

    def run(self, spec: ScenarioSpec) -> ScenarioResult:  # pragma: no cover
        """Execute the scenario and return its result."""
        ...


# --------------------------------------------------------------------------
# policy streams


class PolicyStreamRunner:
    """Drive a bare policy with a key stream; no cluster plumbing.

    The setting of the paper's hit-rate comparisons: every miss is
    admitted (subject to the policy's own filter). Without hooks the
    stream runs through the fused batch APIs (``keys_array`` →
    ``run_stream``); with :class:`~repro.engine.spec.StreamHooks` it runs
    an exactly decision-equivalent per-access loop exposing the
    ``before``/``after`` instrumentation points.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        policy = spec.policy.build(0)
        generator = spec.workload.build_generator(
            spec.scale.key_space, spec.base_seed, 0
        )
        accesses = spec.total_accesses
        hooks = spec.hooks
        if hooks is None:
            run_stream = policy.run_stream
            for keys in _batches(generator.keys_array, accesses):
                run_stream(keys)
        else:
            before, after = hooks.before, hooks.after
            next_key = generator.next_key
            lookup, admit = policy.lookup, policy.admit
            for i in range(accesses):
                if before is not None:
                    before(i)
                key = next_key()
                hit = lookup(key) is not MISSING
                if not hit:
                    admit(key, key)
                if after is not None:
                    after(i, key, hit)

        bus = TelemetryBus()
        stats = policy.stats
        bus.inc(T.HITS, stats.hits)
        bus.inc(T.MISSES, stats.misses)
        bus.inc(T.ACCESSES, stats.accesses)
        bus.inc(T.TOTAL_REQUESTS, accesses)
        _publish_adaptive(bus, [policy])
        return ScenarioResult(spec, bus.snapshot(), policies=[policy])


def _publish_adaptive(bus: TelemetryBus, policies: list[CachePolicy]) -> None:
    """Publish ``adaptive.*`` telemetry for any arbiters among ``policies``.

    No-op on pinned-policy runs (no counters appear, keeping those runs
    byte-identical). Counters sum across arbiters; the per-candidate
    shadow hit rates and the regret estimate are access-weighted.
    """
    arbiters = [p for p in policies if isinstance(p, AdaptiveArbiter)]
    if not arbiters:
        return
    bus.inc(T.ADAPTIVE_SWITCHES, sum(a.switches for a in arbiters))
    bus.inc(T.ADAPTIVE_EPOCHS, sum(a.epochs for a in arbiters))
    bus.inc(T.ADAPTIVE_SHADOW_SAMPLES, sum(a.samples for a in arbiters))
    bus.set_gauge(T.ADAPTIVE_REGRET, sum(a.regret for a in arbiters))
    rates: dict[str, float] = {}
    weights: dict[str, int] = {}
    for arbiter in arbiters:
        for name, rate in arbiter.shadow_hit_rates().items():
            weight = arbiter.samples or 1
            rates[name] = rates.get(name, 0.0) + rate * weight
            weights[name] = weights.get(name, 0) + weight
    for name, total in rates.items():
        bus.set_gauge(f"adaptive.shadow_hit_rate.{name}", total / weights[name])


def _publish_net(bus: TelemetryBus, net: dict[str, Any]) -> None:
    """Publish ``net.*`` telemetry from a network plane's wire counters.

    Only network-enabled runs call this (default runs publish no ``net.*``
    names at all, keeping them byte-identical). The batch-depth
    distribution is published as a histogram whose observations are the
    coalesced-flush depths (requests per socket write).
    """
    bus.inc(T.NET_CONNECTIONS, net["connections"])
    bus.inc(T.NET_RECONNECTS, net["reconnects"])
    bus.inc(T.NET_REQUESTS, net["requests"])
    bus.inc(T.NET_BATCHES, net["batches"])
    bus.inc(T.NET_TIMEOUTS, net["timeouts"])
    bus.inc(T.NET_PROTOCOL_ERRORS, net["protocol_errors"])
    bus.inc(T.NET_FAULT_ERRORS, net["fault_errors"])
    bus.inc(T.NET_BYTES_IN, net["bytes_in"])
    bus.inc(T.NET_BYTES_OUT, net["bytes_out"])
    depths = net.get("batch_depths") or {}
    if depths:
        histogram = LatencyHistogram()
        for depth, count in sorted(depths.items()):
            for _ in range(count):
                histogram.record(float(depth))
        bus.record_histogram(T.NET_BATCH_DEPTH, histogram)


# --------------------------------------------------------------------------
# cluster runs


def _resilience_counts(front_ends: list[FrontEndClient]) -> dict[str, int]:
    """Monotone resilience/hit counters summed across front ends."""
    counts = {
        "hits": 0, "misses": 0, "degraded": 0, "retries": 0,
        "rejections": 0, "opens": 0, "closes": 0,
    }
    for client in front_ends:
        stats = client.policy.stats
        guard = client.guard.stats
        transitions = client.guard.breaker_transitions()
        counts["hits"] += stats.hits
        counts["misses"] += stats.misses
        counts["degraded"] += client.monitor.degraded_reads()
        counts["retries"] += guard.retries
        counts["rejections"] += guard.open_rejections
        counts["opens"] += transitions["opens"]
        counts["closes"] += transitions["closes"]
    return counts


def _publish_head(
    bus: TelemetryBus, front_ends: list[FrontEndClient], requests: int
) -> dict[str, int]:
    """Publish the counters every front-end run has; return the sums."""
    counts = _resilience_counts(front_ends)
    bus.inc(T.HITS, counts["hits"])
    bus.inc(T.MISSES, counts["misses"])
    bus.inc(T.ACCESSES, sum(c.policy.stats.accesses for c in front_ends))
    bus.inc(T.TOTAL_REQUESTS, requests)
    bus.inc(T.DEGRADED_READS, counts["degraded"])
    bus.inc(
        T.FAILED_INVALIDATIONS,
        sum(c.guard.stats.lost_invalidations for c in front_ends),
    )
    return counts


def _mixed(spec: ScenarioSpec) -> bool:
    """Whether the run may write: a ``read_fraction`` below 1, or a
    ``mixer_factory`` — the hatch bespoke streams (YCSB A-F) come in by."""
    workload = spec.workload
    return workload.mixer_factory is not None or (
        workload.read_fraction is not None and workload.read_fraction < 1.0
    )


def _request_source(
    spec: ScenarioSpec, client: FrontEndClient, index: int
) -> tuple[Callable[[Any], Any], Callable[[int], Iterable[Any]]]:
    """One client's request source ``(step, draw)``: ``draw(n)`` lists its
    next ``n`` operations, ``step`` runs one — wire keys into
    ``client.get`` for a pure-read workload (no ``Request`` objects on the
    engine's fast path), requests into ``client.execute`` for a mixed one.
    """
    if _mixed(spec):
        mixer = _build_mixer(spec, index, CLUSTER_MIXER_SEED_OFFSET)
        return client.execute, mixer.next_requests
    keys_array = spec.workload.build_generator(
        spec.scale.key_space, spec.base_seed, index
    ).keys_array
    return client.get, lambda n: map(format_key, keys_array(n))


class ClusterRunner:
    """Drive N front ends over one shared back-end cluster.

    Each client has one request source, the run one cadence tick, and the
    spec picks the order over them:

    * **sequential** (default) — each client drains its quota before the
      next starts, in the chunked batch form; with no per-access body,
      ``verify_value`` and ``warmup_fraction`` are rejected.
    * **round-robin** (``spec.interleave`` or ``spec.phases``) — one
      access per client per round (Table 2's measurement, and the only
      order that exercises concurrent front ends against shared shard
      state), with warm-up, the value oracle and the tick in one body.
      ``spec.phases`` segments the rounds: each phase may fire an action
      against the live cluster, swap the key distribution, and is
      telemetered as its own
      :class:`~repro.engine.telemetry.PhaseTelemetry` delta.

    Elastic front ends plug in through ``spec.client_factory``; their
    epoch records are published to the bus as typed epoch events.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        num_clients = spec.num_clients
        if num_clients < 1:
            raise ConfigurationError("cluster scenario needs >= 1 front end")
        if spec.phases is None and not spec.interleave:
            why = "the sequential order has no per-access body: set `interleave=True`"
            _reject(spec, why, "verify_value", "warmup_fraction")
        if _mixed(spec):
            why = "a static oracle or key-stream swap means nothing once the run writes"
            _reject(spec, why, "verify_value")
            if any(phase.dist is not None for phase in spec.phases or ()):
                raise ConfigurationError(f"`Phase.dist` is set, but {why}")
        net = spec.topology.network
        cluster = _build_cluster(spec)
        # The socket-plane axis (default off → `target is cluster`, the
        # classic byte-identical path): front ends, router and write
        # policy all talk to the plane facade, so every shard hop —
        # reads, writes, replica invalidations — crosses the wire.
        with net.build_plane(cluster) if net.enabled else nullcontext() as plane:
            return self._run_on(spec, cluster, plane)

    def _run_on(
        self, spec: ScenarioSpec, cluster: CacheCluster, plane: Any
    ) -> "ScenarioResult":
        topology = spec.topology
        num_clients = spec.num_clients
        target = cluster if plane is None else plane
        if spec.client_factory is not None:
            front_ends = [
                spec.client_factory(target, i) for i in range(num_clients)
            ]
        else:
            front_ends = [
                FrontEndClient(target, spec.policy.build(i), client_id=f"front-{i}")
                for i in range(num_clients)
            ]
        if spec.tracer is not None:
            # One shared tracer across the run's front ends (covers
            # factory-built clients, e.g. elastic ones, as well).
            for client in front_ends:
                client.tracer = spec.tracer
        router: HotKeyRouter | None = None
        if topology.replication.enabled:
            # One shared router per run (the agreement layer); each front
            # end keeps its own independently-seeded choice RNG.
            router = HotKeyRouter(target, topology.replication.build_config())
            for i, client in enumerate(front_ends):
                client.attach_router(
                    router, seed=spec.base_seed + REPLICA_ROUTE_SEED_OFFSET + i
                )
        write_policy = None
        if topology.write.enabled:
            # One shared strategy per run (dirty buffers / logical clock
            # are cluster state); the default mode builds nothing at all.
            write_policy = topology.write.build_policy()
            write_policy.bind_cluster(target)
            for client in front_ends:
                client.attach_write_policy(write_policy)

        # The run's one cadence, counted in accesses across the whole run
        # whatever the order (which keeps epoch boundaries deterministic):
        # a router's promoted key set is refreshed every `refresh_every`, a
        # buffered write strategy (write-behind) flushed every `flush_every`.
        refresh_every = topology.replication.refresh_every if router is not None else 0
        buffered = write_policy is not None and write_policy.buffered
        flush_every = topology.write.flush_every if buffered else 0
        ticks = 0

        def tick() -> None:
            nonlocal ticks
            ticks += 1
            if refresh_every and ticks % refresh_every == 0:
                router.refresh(front_ends)
            if flush_every and ticks % flush_every == 0:
                write_policy.flush()

        bus = TelemetryBus()
        per_client = spec.total_accesses // num_clients
        # With neither cadence there is no tick: the bare loop stays bare.
        cadence = tick if refresh_every or flush_every else None
        if spec.interleave or spec.phases is not None:
            driven = self._drive_round_robin(
                spec, cluster, front_ends, per_client, bus, cadence
            )
        else:
            driven = self._drive_sequential(spec, front_ends, per_client, cadence)

        self._publish(spec, cluster, front_ends, driven, bus, router, write_policy)
        if plane is not None:
            _publish_net(bus, plane.telemetry())
        return ScenarioResult(
            spec,
            bus.snapshot(),
            policies=[client.policy for client in front_ends],
            cluster=cluster,
            front_ends=front_ends,
        )

    # ------------------------------------------------------------------ orders

    def _drive_sequential(
        self,
        spec: ScenarioSpec,
        front_ends: list[FrontEndClient],
        per_client: int,
        tick: Callable[[], None] | None,
    ) -> int:
        for i, client in enumerate(front_ends):
            step, draw = _request_source(spec, client, i)
            for batch in _batches(draw, per_client):
                if tick is None:
                    for item in batch:
                        step(item)
                else:
                    for item in batch:
                        step(item)
                        tick()
        return per_client * len(front_ends)

    def _drive_round_robin(
        self,
        spec: ScenarioSpec,
        cluster: CacheCluster,
        front_ends: list[FrontEndClient],
        per_client: int,
        bus: TelemetryBus,
        tick: Callable[[], None] | None,
    ) -> int:
        faults = spec.topology.faults
        verify = spec.verify_value
        warmup = int(per_client * spec.warmup_fraction)
        context = RunContext(
            spec=spec, cluster=cluster, faults=faults, front_ends=front_ends
        )
        clients = list(enumerate(front_ends))
        steps, draws = zip(*(_request_source(spec, c, i) for i, c in clients))
        elastic = [c for c in front_ends if isinstance(c, ElasticCoTClient)]
        published = 0
        rounds = 0
        # `interleave=True` alone is one unlabelled phase that pushes no delta.
        phases = (Phase(""),) if spec.phases is None else spec.phases
        for index, phase in enumerate(phases):
            if phase.action is not None:
                phase.action(context)
            if phase.dist is not None:
                swapped = replace(spec, workload=WorkloadSpec(dist=phase.dist))
                draws = [_request_source(swapped, c, i)[1] for i, c in clients]
            down = tuple(sorted(faults.down_servers())) if faults else ()
            before = _resilience_counts(front_ends)
            start_epoch = len(elastic[0].history) if elastic else 0
            incorrect_before = bus.counter(T.INCORRECT_READS)
            phase_accesses = per_client if phase.accesses is None else phase.accesses
            streams = [
                chain.from_iterable(_batches(draw, phase_accesses)) for draw in draws
            ]
            for items in zip(*streams):
                if warmup and rounds == warmup:
                    cluster.reset_epoch()
                rounds += 1
                for step, item in zip(steps, items):
                    value = step(item)
                    if verify is not None and value != verify(item):
                        bus.inc(T.INCORRECT_READS)
                    if tick is not None:
                        tick()
            if spec.phases is None:
                break
            after = _resilience_counts(front_ends)
            # Publish the epochs that closed during this phase.
            for client in elastic:
                for record in client.history[published:]:
                    bus.emit_epoch(record)
                published = len(client.history)
            bus.push_phase(PhaseTelemetry(
                index=index,
                label=phase.label,
                down=down,
                reads=phase_accesses * len(front_ends),
                hits=after["hits"] - before["hits"],
                degraded_reads=after["degraded"] - before["degraded"],
                retries=after["retries"] - before["retries"],
                open_rejections=after["rejections"] - before["rejections"],
                breaker_opens=after["opens"] - before["opens"],
                breaker_closes=after["closes"] - before["closes"],
                incorrect_reads=bus.counter(T.INCORRECT_READS) - incorrect_before,
                start_epoch=start_epoch,
                epoch_events=bus.epoch_events_since(start_epoch) if elastic else (),
            ))
        return rounds * len(front_ends)

    # ---------------------------------------------------------------- publish

    def _publish(
        self,
        spec: ScenarioSpec,
        cluster: CacheCluster,
        front_ends: list[FrontEndClient],
        driven: int,
        bus: TelemetryBus,
        router: HotKeyRouter | None = None,
        write_policy: "Any | None" = None,
    ) -> None:
        counts = _publish_head(bus, front_ends, driven)
        bus.inc(T.RETRIES, counts["retries"])
        bus.inc(T.OPEN_REJECTIONS, counts["rejections"])
        bus.inc(T.BREAKER_OPENS, counts["opens"])
        bus.inc(T.BREAKER_CLOSES, counts["closes"])
        bus.record_shard_loads(cluster.loads(), cluster.epoch_loads())
        bus.fallback_latency = sum(
            c.monitor.fallback_latency_total for c in front_ends
        )
        if router is not None:
            rstats = router.stats
            bus.inc(T.REPLICA_REFRESHES, rstats.refreshes)
            bus.inc(T.REPLICA_PROMOTIONS, rstats.promotions)
            bus.inc(T.REPLICA_DEMOTIONS, rstats.demotions)
            bus.inc(T.REPLICATED_READS, rstats.replicated_reads)
            bus.inc(T.TWO_CHOICE_READS, rstats.two_choice_reads)
            bus.inc(T.REPLICA_PRIMARY_FALLBACKS, rstats.primary_fallbacks)
            bus.inc(T.REPLICA_INVALIDATIONS, rstats.replica_invalidations)
            bus.inc(
                T.FAILED_REPLICA_INVALIDATIONS,
                rstats.failed_replica_invalidations,
            )
            bus.set_gauge("replication.active_keys", float(len(router)))
        if write_policy is not None:
            # Residual depth before the final drain is the interesting
            # gauge (how much acknowledged data was volatile at the end);
            # the counters are read after it so the drain's flushes count.
            bus.set_gauge(
                "write.dirty_buffer_depth", float(write_policy.dirty_depth())
            )
            write_policy.flush()
            ws = write_policy.stats
            bus.inc(T.WRITE_STORAGE_WRITES, ws.storage_writes)
            bus.inc(T.WRITE_THROUGH_WRITES, ws.through_writes)
            bus.inc(T.WRITE_BUFFERED, ws.buffered_writes)
            bus.inc(T.WRITE_COALESCED, ws.coalesced_writes)
            bus.inc(T.WRITE_FLUSHED, ws.flushed_writes)
            bus.inc(T.WRITE_FLUSHES, ws.flushes)
            bus.inc(T.WRITE_BOUND_FLUSHES, ws.bound_flushes)
            bus.inc(T.WRITE_LOST, ws.lost_writes)
            bus.inc(T.WRITE_SYNC_FALLBACKS, ws.sync_fallbacks)
            bus.inc(T.WRITE_TTL_EXPIRATIONS, ws.ttl_expirations)
            bus.set_gauge("write.peak_dirty_depth", float(ws.peak_dirty))
        elastic = [c for c in front_ends if isinstance(c, ElasticCoTClient)]
        if elastic and spec.phases is None:
            # Phased runs publish epochs incrementally; publish here
            # otherwise so plain elastic runs still expose their series.
            for client in elastic:
                for record in client.history:
                    bus.emit_epoch(record)
        if len(elastic) == 1:
            cache, tracker = elastic[0].converged_sizes()
            bus.set_gauge("elastic.final_cache", cache)
            bus.set_gauge("elastic.final_tracker", tracker)
            bus.set_gauge(
                "elastic.alpha_target", elastic[0].controller.alpha_target
            )
        if elastic:
            triggers = sum(c.decay_policy.triggers for c in elastic)
            epoch_decays = sum(c.decay_policy.epoch_decays for c in elastic)
            if triggers or epoch_decays:
                bus.inc(T.DECAY_TRIGGERS, triggers)
                bus.inc(T.DECAY_EPOCH_DECAYS, epoch_decays)
        _publish_adaptive(bus, [c.policy for c in front_ends])


# --------------------------------------------------------------------------
# discrete-event simulation


class SimRunner:
    """Execute a scenario on the discrete-event testbed (Figures 5-6).

    Assembles a shared content cluster, per-shard timing models, a
    latency model, and N closed-loop clients each with its own front-end
    policy, runs the event loop to completion, and publishes the
    *overall running time* (the paper's metric: time until the last
    client finishes its quota) plus load, latency-percentile and
    resilience telemetry.

    ``spec.topology.faults`` attaches to the shared content cluster, as
    in :class:`ClusterRunner`: a killed or flaky shard raises into each
    client's own guard (bounded retries, breaker fail-fast, degraded
    reads from storage) and the simulator charges what that cost. The
    per-shard *timing* models read the injector for ``slowdown()`` only.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        num_clients = spec.num_clients
        per_client = spec.requests_per_client
        if per_client is None:
            per_client = max(1, spec.total_accesses // max(num_clients, 1))
        if num_clients < 1 or per_client < 1:
            raise ConfigurationError("need >= 1 client and >= 1 request")
        topology = spec.topology
        _reject(
            spec, "the simulator's closed loop over a bare cluster would ignore it",
            "topology.replication.enabled", "topology.write.enabled",
            "topology.network.enabled", "phases", "client_factory", "interleave",
            "verify_value", "warmup_fraction",
        )
        sim = Simulator()
        faults = topology.faults
        cluster = _build_cluster(spec)
        model = spec.service_model or ServiceModel()
        latency = spec.latency or FixedLatency()
        fair = 1.0 / len(cluster.server_ids)
        total_counter = [0]
        servers: dict[str, SimBackendServer] = {}
        for server_id in cluster.server_ids:
            server = SimBackendServer(server_id, model, fair, fault_injector=faults)
            server.bind_total_counter(total_counter)
            servers[server_id] = server
        clients: list[SimClient] = []
        for client_id in range(num_clients):
            mixer = _build_mixer(spec, client_id, SIM_MIXER_SEED_OFFSET)
            client = SimClient(
                client_id=client_id,
                sim=sim,
                requests=chain.from_iterable(_batches(mixer.next_requests, per_client)),
                policy=spec.policy.build(client_id),
                cluster=cluster,
                servers=servers,
                latency=latency,
                total_requests=per_client,
                tracer=spec.tracer,
            )
            clients.append(client)

        for client in clients:
            client.start()
        runtime = sim.run()
        bus = self._publish(clients, servers, runtime)
        return ScenarioResult(
            spec,
            bus.snapshot(),
            policies=[client.policy for client in clients],
            cluster=cluster,
            sim_clients=clients,
            servers=servers,
        )

    def _publish(
        self,
        clients: list[SimClient],
        servers: dict[str, SimBackendServer],
        runtime: float,
    ) -> TelemetryBus:
        bus = TelemetryBus()
        front_ends = [c.front_end for c in clients]
        total_requests = sum(c.completed for c in clients)
        _publish_head(bus, front_ends, total_requests)
        bus.record_shard_loads(
            {sid: server.arrivals for sid, server in servers.items()}
        )
        bus.runtime = runtime
        bus.per_client_runtime = tuple(
            c.finish_time if c.finish_time is not None else runtime for c in clients
        )
        latency_total = sum(c.latency_histogram.total for c in clients)
        bus.mean_latency = latency_total / total_requests if total_requests else 0.0
        # One estimator for the percentiles and the published distribution:
        # the fixed-bucket merge is exact, and ``merge_snapshots`` derives
        # p50/p99 from the same histogram, so merged and unmerged snapshots
        # of one run agree.
        histogram = LatencyHistogram.merged(c.latency_histogram for c in clients)
        if histogram.count:
            bus.p50_latency = histogram.percentile(50)
            bus.p99_latency = histogram.percentile(99)
            bus.record_histogram(T.REQUEST_LATENCY, histogram)
        bus.fallback_latency = sum(c.fallback_latency_sum for c in clients)
        return bus
