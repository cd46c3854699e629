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
process, freezes one :class:`~repro.engine.telemetry.TelemetrySnapshot`
in its publish tail and returns it with the live objects it drove (fan-out is
:mod:`repro.engine.parallel`'s job). The chunk size and seed offsets are
contract: they keep every experiment byte-identical
(``tests/test_golden_outputs.py``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
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
from repro.engine.telemetry import PhaseTelemetry, TelemetrySnapshot
from repro.errors import ConfigurationError
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
    "build_cluster",
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

        telemetry = _publish(accesses, _sources([], [policy]))
        return ScenarioResult(spec, telemetry, policies=[policy])


def _sources(
    front_ends: list[FrontEndClient], policies: list[CachePolicy] | None = None
) -> dict[str, list[Any]]:
    """The live stats objects a run's front ends (or bare ``policies``)
    keep, filed under the ``source`` names
    :data:`~repro.engine.telemetry.CATALOGUE` rows read. Which sources a
    run has is the only per-runner part of publishing: an empty one keeps
    its rows off the page."""
    if policies is None:
        policies = [c.policy for c in front_ends]
    elastic = [c for c in front_ends if isinstance(c, ElasticCoTClient)]
    decays = [c.decay_policy for c in elastic]
    return {
        "policy": [policy.stats for policy in policies],
        "arbiter": [p for p in policies if isinstance(p, AdaptiveArbiter)],
        "monitor": [c.monitor for c in front_ends],
        "guard": [c.guard.stats for c in front_ends],
        "breaker": [b for c in front_ends for b in c.guard.breakers()],
        # The converged sizes are one client's answer, not a sum.
        "elastic": elastic if len(elastic) == 1 else [],
        # A run whose decay policy never fired publishes no `decay.*` names.
        "decay": decays if any(d.triggers or d.epoch_decays for d in decays) else [],
    }


def _publish(
    requests: int,
    sources: dict[str, list[Any]],
    drain: Callable[[], Any] | None = None,
    incorrect_reads: int = 0,
    **run_level: Any,
) -> TelemetrySnapshot:
    """The one publish tail: freeze ``requests``, the incorrect reads and
    every catalogued value ``sources`` can answer, read off the stats
    objects as they stand, with the ``run_level`` fields only the runner
    knows (shard loads, epoch events, phases, runtime, fallback latency),
    and hand the snapshot to the listeners."""
    counters, gauges, histograms = T.collect(sources)
    if drain is not None:
        # Gauges say what the run left (the dirty depth still volatile);
        # counters are read after the final drain so its flushes count.
        drain()
        counters = T.collect(sources).counters
    # The catalogue's "run" rows are the runner's own counts; the incorrect
    # reads are on the page only when some read disagreed.
    own = {T.INCORRECT_READS: incorrect_reads} if incorrect_reads else {}
    own[T.TOTAL_REQUESTS] = requests
    snapshot = TelemetrySnapshot(
        {**own, **counters}, gauges, histograms=histograms, **run_level
    )
    T.notify_snapshot_listeners(snapshot)
    return snapshot


# --------------------------------------------------------------------------
# cluster runs


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


@contextmanager
def build_cluster(spec: ScenarioSpec) -> Iterator[RunContext]:
    """The one cluster builder: the cluster, socket plane (closed on exit),
    front ends, router and write policy a spec describes, as the run's
    context. :class:`ClusterRunner` drives it; the cluster fuzz steps it."""
    topology = spec.topology
    cluster = _build_cluster(spec)
    net = topology.network
    # With a socket plane, front ends, router and write policy all talk to
    # its facade, so every shard hop crosses the wire; without, to the cluster.
    with nullcontext() if net is None else net.build_plane(cluster) as plane:
        target = cluster if plane is None else plane
        factory = spec.client_factory
        front_ends = [
            factory(target, i) if factory is not None
            else FrontEndClient(target, spec.policy.build(i), client_id=f"front-{i}")
            for i in range(spec.num_clients)
        ]
        if spec.tracer is not None:
            # One tracer shared by the run's front ends, factory-built too.
            for client in front_ends:
                client.tracer = spec.tracer
        router: HotKeyRouter | None = None
        if topology.replication is not None:
            # One shared router per run (the agreement layer); each front
            # end keeps its own independently-seeded choice RNG.
            router = HotKeyRouter(target, topology.replication)
            for i, client in enumerate(front_ends):
                client.attach_router(
                    router, seed=spec.base_seed + REPLICA_ROUTE_SEED_OFFSET + i
                )
        write_policy = None
        if topology.write is not None:
            # One shared strategy per run (dirty buffers / logical clock
            # are cluster state); cache-aside (`None`) builds nothing.
            write_policy = topology.write.build_policy(target)
            for client in front_ends:
                client.attach_write_policy(write_policy)
        yield RunContext(spec, cluster, front_ends, plane, router, write_policy)


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
    epoch records are published as the snapshot's typed epoch events.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        if spec.num_clients < 1:
            raise ConfigurationError("cluster scenario needs >= 1 front end")
        if not 0.0 <= spec.warmup_fraction < 1.0:
            # Outside [0, 1) the round-robin epoch reset would never fire.
            raise ConfigurationError("`warmup_fraction` must be in [0, 1)")
        if spec.phases is None and not spec.interleave:
            why = "the sequential order has no per-access body: set `interleave=True`"
            _reject(spec, why, "verify_value", "warmup_fraction")
        if _mixed(spec):
            why = "a static oracle or key-stream swap means nothing once the run writes"
            _reject(spec, why, "verify_value")
            if any(phase.dist is not None for phase in spec.phases or ()):
                raise ConfigurationError(f"`Phase.dist` is set, but {why}")
        with build_cluster(spec) as context:
            return self._run_on(spec, context)

    def _run_on(self, spec: ScenarioSpec, context: RunContext) -> ScenarioResult:
        topology = spec.topology
        cluster, plane, front_ends = context.cluster, context.plane, context.front_ends
        router, write_policy = context.router, context.write_policy
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

        per_client = spec.total_accesses // len(front_ends)
        # With neither cadence there is no tick: the bare loop stays bare.
        cadence = tick if refresh_every or flush_every else None
        incorrect_reads, phases = 0, ()
        if spec.interleave or spec.phases is not None:
            driven, incorrect_reads, phases = self._drive_round_robin(
                context, per_client, cadence
            )
        else:
            driven = self._drive_sequential(spec, front_ends, per_client, cadence)

        sources = _sources(front_ends)
        if router is not None:
            sources["router"] = [router]
        if plane is not None:
            sources["net_client"] = [plane.client_stats]
            sources["net_server"] = list(plane.server_stats().values())
            sources["net_ends"] = sources["net_client"] + sources["net_server"]
        drain = None
        if write_policy is not None:
            sources["write"] = [write_policy]
            drain = write_policy.flush
        # A phased run's epochs are those its phases closed, phase by phase.
        histories = (c.history for c in front_ends if isinstance(c, ElasticCoTClient))
        epoch_events = chain.from_iterable(
            histories if spec.phases is None else (p.epoch_events for p in phases)
        )
        telemetry = _publish(
            driven, sources, drain, incorrect_reads,
            shard_loads=cluster.loads(),
            epoch_shard_loads=cluster.epoch_loads(),
            epoch_events=tuple(epoch_events),
            phases=phases,
        )
        return ScenarioResult(
            spec,
            telemetry,
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
        context: RunContext,
        per_client: int,
        tick: Callable[[], None] | None,
    ) -> tuple[int, int, tuple[PhaseTelemetry, ...]]:
        """Drive the rounds; return the requests driven, the reads that
        failed ``verify_value`` and the phases' telemetry."""
        spec, cluster, front_ends = context.spec, context.cluster, context.front_ends
        faults = cluster.faults
        verify = spec.verify_value
        warmup = int(per_client * spec.warmup_fraction)
        clients = list(enumerate(front_ends))
        steps, draws = zip(*(_request_source(spec, c, i) for i, c in clients))
        elastic = [c for c in front_ends if isinstance(c, ElasticCoTClient)]
        # Per elastic client, how many of its epoch records a phase has taken.
        published = [0] * len(elastic)
        rounds = incorrect = 0
        records: list[PhaseTelemetry] = []
        # `interleave=True` alone is one unlabelled phase that pushes no delta.
        phases = (Phase(""),) if spec.phases is None else spec.phases
        for index, phase in enumerate(phases):
            if phase.action is not None:
                phase.action(context)
            if phase.dist is not None:
                swapped = replace(spec, workload=WorkloadSpec(dist=phase.dist))
                draws = [_request_source(swapped, c, i)[1] for i, c in clients]
            down = tuple(sorted(faults.down_servers())) if faults else ()
            before = T.collect(_sources(front_ends)).counters
            start_epoch = len(elastic[0].history) if elastic else 0
            incorrect_before = incorrect
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
                        incorrect += 1
                    if tick is not None:
                        tick()
            if spec.phases is None:
                break
            # The epochs that closed during this phase.
            epoch_events = tuple(chain.from_iterable(
                client.history[n:] for client, n in zip(elastic, published)
            ))
            published = [len(client.history) for client in elastic]
            records.append(PhaseTelemetry.between(
                before,
                T.collect(_sources(front_ends)).counters,
                index=index,
                label=phase.label,
                down=down,
                reads=phase_accesses * len(front_ends),
                incorrect_reads=incorrect - incorrect_before,
                start_epoch=start_epoch,
                epoch_events=epoch_events,
            ))
        return rounds * len(front_ends), incorrect, tuple(records)


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
        _reject(
            spec, "the simulator's closed loop over a bare cluster would ignore it",
            "topology.replication", "topology.write",
            "topology.network", "phases", "client_factory", "interleave",
            "verify_value", "warmup_fraction",
        )
        sim = Simulator()
        faults = spec.topology.faults
        cluster = _build_cluster(spec)
        model = ServiceModel()
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
        front_ends = [c.front_end for c in clients]
        sources = _sources(front_ends)
        sources["sim"] = clients
        telemetry = _publish(
            sum(c.completed for c in clients), sources,
            shard_loads={sid: server.arrivals for sid, server in servers.items()},
            runtime=runtime,
            fallback_latency=sum(c.fallback_latency_sum for c in clients),
        )
        return ScenarioResult(
            spec,
            telemetry,
            policies=[client.policy for client in clients],
            cluster=cluster,
            sim_clients=clients,
            servers=servers,
        )
