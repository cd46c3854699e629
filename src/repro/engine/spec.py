"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the engine's unit of execution: *what* to run
(workload + policy + topology + fault schedule + scale + seeds) with no
*how*. Runners (:mod:`repro.engine.runners`) interpret specs; experiment
modules build them; the spec registry (:mod:`repro.engine.registry`)
enumerates the experiments that produce them.

``Scale`` lives here as the single source of truth for the
``smoke``/``default``/``paper`` sizing presets (plus the ``tiny`` test
preset and ``scaled`` overrides) — experiment modules, tests and benches
all derive their sizings from these presets instead of re-declaring
numbers.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Hashable, TYPE_CHECKING

from repro.cluster.writepolicy import (
    POLICY_MODES,
    WritePolicy,
    make_write_policy,
)
from repro.errors import ConfigurationError, ExperimentError
from repro.policies.base import CachePolicy
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.workloads.base import KeyGenerator
from repro.workloads.mixer import OperationMixer
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cluster.cluster import CacheCluster
    from repro.cluster.faults import FaultInjector
    from repro.cluster.client import FrontEndClient
    from repro.cluster.replication import HotKeyRouter, ReplicationConfig
    from repro.cluster.storage import PersistentStore
    from repro.net.plane import NetworkPlane
    from repro.obs.trace import Tracer
    from repro.sim.network import FixedLatency

__all__ = [
    "ArbitrationSpec",
    "NetworkSpec",
    "Phase",
    "PolicySpec",
    "Scale",
    "ScenarioSpec",
    "StreamHooks",
    "TopologySpec",
    "WorkloadSpec",
    "WriteSpec",
    "make_generator",
    "spawn_safe",
]


def spawn_safe(obj: Any) -> bool:
    """Whether ``obj`` can cross a process boundary (round-trips pickle).

    The parallel fabric (:mod:`repro.engine.parallel`) ships specs to
    spawned workers, so everything a spec closes over must be picklable:
    factories must be module-level callables or instances of module-level
    classes — locally-defined closures and lambdas are not. Specs that
    fail this check are still valid; the fabric just runs them in-process
    on the sequential path.
    """
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs.

    ``paper`` replicates the paper's workload sizes (slow in pure Python);
    ``default`` shrinks the key space and access count ~10-20× while
    preserving every qualitative shape; ``smoke`` is for CI/benchmarks;
    ``tiny`` is the unit-test sizing. Derived sizings use :meth:`scaled`
    rather than re-declaring the numbers.
    """

    name: str
    key_space: int
    accesses: int
    num_clients: int = 20
    num_servers: int = 8
    seed: int = 42

    @classmethod
    def smoke(cls) -> "Scale":
        """Seconds-scale: CI and the perf gate's rows."""
        return cls("smoke", key_space=20_000, accesses=60_000, num_clients=4)

    @classmethod
    def default(cls) -> "Scale":
        """Minutes-scale: the EXPERIMENTS.md numbers."""
        return cls("default", key_space=100_000, accesses=1_000_000)

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's full size (1M keys, 10M accesses)."""
        return cls("paper", key_space=1_000_000, accesses=10_000_000)

    @classmethod
    def tiny(cls) -> "Scale":
        """Sub-second unit-test sizing."""
        return cls(
            "tiny", key_space=5_000, accesses=20_000, num_clients=2, num_servers=4
        )

    @classmethod
    def named(cls, name: str) -> "Scale":
        """Resolve a preset by name."""
        presets = {"smoke": cls.smoke, "default": cls.default, "paper": cls.paper}
        if name not in presets:
            raise ExperimentError(
                f"unknown scale {name!r}; choose from {sorted(presets)}"
            )
        return presets[name]()

    def scaled(self, **overrides: Any) -> "Scale":
        """A copy of this preset with explicit field overrides."""
        return dataclasses.replace(self, **overrides)


def make_generator(dist: str, key_space: int, seed: int) -> KeyGenerator:
    """Build a generator from a distribution id (``uniform``/``zipf-<s>``)."""
    if dist == "uniform":
        return UniformGenerator(key_space, seed=seed)
    if dist.startswith("zipf-"):
        theta = float(dist.split("-", 1)[1])
        return ZipfianGenerator(key_space, theta=theta, seed=seed)
    raise ExperimentError(f"unknown distribution id: {dist!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """What keys/operations the scenario issues.

    ``dist`` names a distribution (``uniform``/``zipf-<s>``) built with
    the engine's per-client seeding; ``generator_factory`` is the escape
    hatch for bespoke generators (hotspot, gaussian, rotating hot sets),
    called with the client index — make it a module-level callable (not a
    closure) to keep the spec eligible for the parallel fabric (see
    :func:`spawn_safe`). ``read_fraction`` of ``None`` keeps the
    runner's default (pure reads on the cluster, Tao's mix in the
    simulator); ``mixer_factory`` replaces operation mixing entirely (the
    YCSB A-F hatch). A mixed workload runs through
    ``FrontEndClient.execute`` in every order.
    """

    dist: str | None = None
    read_fraction: float | None = None
    generator_factory: Callable[[int], KeyGenerator] | None = None
    mixer_factory: Callable[[int], OperationMixer] | None = None

    def build_generator(self, key_space: int, seed: int, client_index: int) -> KeyGenerator:
        """One client's key stream (independently seeded per client)."""
        if self.generator_factory is not None:
            return self.generator_factory(client_index)
        if self.dist is None:
            raise ExperimentError("workload needs a dist or a generator_factory")
        return make_generator(self.dist, key_space, seed + client_index)


@dataclass(frozen=True)
class PolicySpec:
    """Which front-end cache policy each client runs.

    ``name``/``cache_lines``/``tracker_lines`` route through
    :func:`repro.policies.registry.make_policy` (one policy instance per
    client); ``factory`` is the escape hatch for pre-configured policies,
    called with the client index. Like generator factories, a ``factory``
    must be a module-level callable (a picklable callable class works too)
    for the spec to stay :func:`spawn_safe`.

    ``arbitration`` (default ``None`` — off, byte-identical to a pinned
    policy) wraps each client's policy in an
    :class:`~repro.policies.adaptive.AdaptiveArbiter` at the same
    ``cache_lines``/``tracker_lines``, with ``name`` as the initial live
    policy when it is one of the candidates (DESIGN.md §14).
    """

    name: str = "none"
    cache_lines: int = 0
    tracker_lines: int | None = None
    factory: Callable[[int], CachePolicy] | None = None
    arbitration: "ArbitrationSpec | None" = None

    def build(self, client_index: int) -> CachePolicy:
        """Construct this spec's policy for one client."""
        if self.factory is not None:
            return self.factory(client_index)
        if self.name == "none" or self.cache_lines == 0:
            return make_policy("none", 0)
        if self.arbitration is not None:
            return self.arbitration.build(
                self.name, self.cache_lines, self.tracker_lines
            )
        return make_policy(
            self.name, self.cache_lines, tracker_capacity=self.tracker_lines
        )


@dataclass(frozen=True)
class ArbitrationSpec:
    """The adaptive-arbitration axis on :class:`PolicySpec` (default: off).

    With ``PolicySpec.arbitration = None`` (the default everywhere) the
    engine builds exactly the pinned policy it always has — every
    registered experiment stays byte-identical, pinned by the golden
    tests. When attached, each client's policy becomes an
    :class:`~repro.policies.adaptive.AdaptiveArbiter` over the paper's
    comparison set (``POLICY_NAMES``) wrapping the spec's sizing, live
    first on the PolicySpec's ``name`` when it is a candidate, else on
    ``POLICY_NAMES[0]``. The fields are the arbiter's settings a run
    varies (see ``repro/policies/adaptive.py`` for semantics).
    """

    epoch_length: int = 2_048
    sample_shift: int = 6
    switch_margin: float = 0.02
    min_samples: int = 8

    def build(
        self, name: str, cache_lines: int, tracker_lines: int | None
    ) -> CachePolicy:
        """Construct one client's arbiter around the spec's sizing."""
        from repro.policies.adaptive import AdaptiveArbiter

        return AdaptiveArbiter(
            cache_lines,
            tracker_capacity=tracker_lines,
            epoch_length=self.epoch_length,
            sample_shift=self.sample_shift,
            switch_margin=self.switch_margin,
            min_samples=self.min_samples,
            initial=name if name in POLICY_NAMES else POLICY_NAMES[0],
        )


@dataclass(frozen=True)
class WriteSpec:
    """The write-path coherence axis on :class:`TopologySpec`.

    ``TopologySpec.write = None`` (the default) is cache-aside: the client
    runs its inline write body. A spec names one of the
    ``repro.cluster.writepolicy.POLICY_MODES``; the run's front ends then
    share one :class:`~repro.cluster.writepolicy.WritePolicy`.
    """

    mode: str
    #: write-behind: max acknowledged-but-unflushed writes per shard
    dirty_limit: int = 64
    #: write-behind: total accesses (across front ends) between flushes
    flush_every: int = 2_048
    #: ttl: logical-clock ticks (write operations) a cached copy lives
    ttl: int = 1_024

    def __post_init__(self) -> None:
        # Checked here, not when a run builds the policy (after a socket
        # plane may already be up).
        if self.mode == "cache-aside":
            raise ConfigurationError("cache-aside is `write=None`, not a WriteSpec")
        if self.mode not in POLICY_MODES:
            raise ConfigurationError(
                f"unknown write mode {self.mode!r};"
                f" expected one of {', '.join(POLICY_MODES)}"
            )
        if self.dirty_limit < 1:
            raise ConfigurationError("dirty_limit must be >= 1")
        if self.ttl < 1:
            raise ConfigurationError("ttl must be >= 1")
        if self.flush_every < 1:
            # The runner's cadence would skip every flush with no error.
            raise ConfigurationError("flush_every must be >= 1")

    def build_policy(self, cluster: "CacheCluster") -> WritePolicy:
        """The shared write strategy this spec describes, bound to ``cluster``."""
        return make_write_policy(
            self.mode, cluster, dirty_limit=self.dirty_limit, ttl=self.ttl
        )


@dataclass(frozen=True)
class NetworkSpec:
    """The socket data plane axis on :class:`TopologySpec`.

    ``TopologySpec.network = None`` (the default) is the in-process
    plane. With a spec the runner wraps the run's cluster in a
    :class:`~repro.net.plane.NetworkPlane`: each shard is served over a
    localhost TCP socket by an asyncio memcached-protocol server and
    front ends reach it over one blocking socket per shard
    (DESIGN.md §15). Decisions are identical by construction — the
    equivalence replay (``tests/_plane_equivalence.py``, run by
    ``tests/test_net.py``) enforces it — but the run pays (and
    ``net.*`` telemetry measures) real serialization and syscall cost.
    """

    host: str = "127.0.0.1"
    #: per-request client timeout (seconds) → ``ShardTimeoutError``
    timeout: float = 5.0

    def build_plane(self, cluster: "CacheCluster") -> "NetworkPlane":
        """The started socket plane this spec describes."""
        from repro.net.plane import NetworkPlane

        return NetworkPlane(cluster, host=self.host, timeout=self.timeout).start()


@dataclass(frozen=True)
class TopologySpec:
    """Cluster shape: shards, front ends, capacities, storage, faults.

    ``None`` fields inherit from the scenario's :class:`Scale`.
    """

    num_servers: int | None = None
    num_clients: int | None = None
    capacity_bytes: int = 1 << 40
    value_size: int = 1
    storage: "PersistentStore | None" = None
    faults: "FaultInjector | None" = None
    #: replicated hot-key tier axis: ``None`` (the default) is off, the
    #: classic protocol; a config shares one
    #: :class:`~repro.cluster.replication.HotKeyRouter` across the run's
    #: front ends, refreshed every ``refresh_every`` total accesses
    replication: "ReplicationConfig | None" = None
    #: write-path coherence axis; ``None`` (the default) is inline cache-aside
    write: WriteSpec | None = None
    #: socket data plane axis; ``None`` (the default) is the in-process cluster
    network: NetworkSpec | None = None


@dataclass(frozen=True)
class Phase:
    """One segment of a phased cluster run (fault/workload schedule).

    ``action`` fires against the live run context at phase start (kill a
    shard, flip a fault, …). ``dist`` of ``None`` continues the current
    key stream; a distribution id swaps in a fresh stream (the Figure 8
    workload switch). ``accesses`` of ``None`` uses the scenario's
    per-client access count.
    """

    label: str
    accesses: int | None = None
    action: Callable[["RunContext"], None] | None = None
    dist: str | None = None


@dataclass(frozen=True)
class StreamHooks:
    """Per-access instrumentation for policy-stream scenarios.

    When present, the runner switches from the fused chunked drive to an
    exactly-equivalent per-access loop and calls ``before(i)`` ahead of
    each key draw and ``after(i, key, hit)`` behind each access — the
    hook points the rotation/drift/decay extensions need.
    """

    before: Callable[[int], None] | None = None
    after: Callable[[int, Hashable, bool], None] | None = None


@dataclass
class RunContext:
    """The live objects of one cluster run (phase actions get them), as
    :func:`~repro.engine.runners.build_cluster` assembles them."""

    spec: "ScenarioSpec"
    cluster: "CacheCluster"
    front_ends: list["FrontEndClient"]
    #: the socket plane when ``topology.network`` is set, else ``None``
    plane: "NetworkPlane | None"
    router: "HotKeyRouter | None"
    write_policy: "WritePolicy | None"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described run: the engine's declarative unit.

    Runner-specific knobs are optional fields with inert defaults; a
    runner rejects a set field it could only ignore. ``seed`` of ``None``
    inherits ``scale.seed`` — sweeps that re-seed per repetition (Figure
    5's ``base_seed + 10_000 × rep``) override it explicitly.
    """

    scale: Scale
    workload: WorkloadSpec
    policy: PolicySpec = PolicySpec()
    topology: TopologySpec = TopologySpec()
    seed: int | None = None
    #: total accesses (policy-stream / cluster paths); None -> scale.accesses
    accesses: int | None = None
    #: per-client request quota (sim path); None -> derived by the caller
    requests_per_client: int | None = None
    #: drive clients round-robin, one access each per round, instead of
    #: sequentially (Table 2's measurement); implied by ``phases``
    interleave: bool = False
    #: fraction of the per-client quota, counted in rounds from the start
    #: of the run (phases or not), before the cluster's epoch counters
    #: reset — Table 2 excludes cold-start misses; round-robin only
    warmup_fraction: float = 0.0
    #: front-end factory for non-standard clients (elastic front ends);
    #: called with (cluster, client_index)
    client_factory: Callable[["CacheCluster", int], "FrontEndClient"] | None = None
    #: fault/workload schedule for phased cluster runs
    phases: tuple[Phase, ...] | None = None
    #: per-access instrumentation (policy-stream path)
    hooks: StreamHooks | None = None
    #: authoritative-value oracle; when set, every read of a round-robin
    #: pure-read run is checked, mismatches counted as ``INCORRECT_READS``
    verify_value: Callable[[Hashable], Any] | None = None
    #: sim-path round-trip model
    latency: "FixedLatency | None" = None
    #: sampling request tracer shared by every client of the run; the
    #: runners attach it to front ends / sim clients (factory-built
    #: clients included). ``None`` — and any tracer at sample rate 0 —
    #: is observationally inert: outputs stay byte-identical.
    tracer: "Tracer | None" = None

    # ------------------------------------------------------------ resolution

    @property
    def base_seed(self) -> int:
        """The run's root seed (per-client streams offset from it)."""
        return self.scale.seed if self.seed is None else self.seed

    @property
    def total_accesses(self) -> int:
        """Accesses across all clients (policy-stream / cluster paths)."""
        return self.scale.accesses if self.accesses is None else self.accesses

    @property
    def num_servers(self) -> int:
        return (
            self.scale.num_servers
            if self.topology.num_servers is None
            else self.topology.num_servers
        )

    @property
    def num_clients(self) -> int:
        return (
            self.scale.num_clients
            if self.topology.num_clients is None
            else self.topology.num_clients
        )
