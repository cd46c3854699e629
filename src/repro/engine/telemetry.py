"""Typed telemetry for scenario runs.

Every runner publishes its measurements through one :class:`TelemetryBus`
instead of handing callers a grab-bag of dicts: counters (monotone event
counts such as hits or degraded reads), gauges (latest-value readings
such as converged cache size), per-shard load families, epoch events
(the elastic controller's :class:`~repro.core.epoch.EpochRecord` stream)
and phase marks (fault-schedule segments). At the end of a run the bus
freezes into a :class:`TelemetrySnapshot` — the single typed result
surface the experiment reporters read, replacing the ad-hoc
``policy.stats``/``cluster.loads()``/simulation-result dict pokes the
three legacy harnesses used to hand-wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.cluster.loadmonitor import load_imbalance
from repro.core.epoch import EpochRecord
from repro.obs.hist import LatencyHistogram

__all__ = [
    "ACCESSES",
    "ADAPTIVE_EPOCHS",
    "ADAPTIVE_REGRET",
    "ADAPTIVE_SHADOW_SAMPLES",
    "ADAPTIVE_SWITCHES",
    "BREAKER_CLOSES",
    "BREAKER_OPENS",
    "DECAY_EPOCH_DECAYS",
    "DECAY_TRIGGERS",
    "DEGRADED_READS",
    "FAILED_INVALIDATIONS",
    "HITS",
    "INCORRECT_READS",
    "MISSES",
    "NET_BATCHES",
    "NET_BATCH_DEPTH",
    "NET_BYTES_IN",
    "NET_BYTES_OUT",
    "NET_CONNECTIONS",
    "NET_FAULT_ERRORS",
    "NET_PROTOCOL_ERRORS",
    "NET_RECONNECTS",
    "NET_REQUESTS",
    "NET_TIMEOUTS",
    "OPEN_REJECTIONS",
    "REQUEST_LATENCY",
    "RETRIES",
    "TOTAL_REQUESTS",
    "PhaseTelemetry",
    "TelemetryBus",
    "TelemetrySnapshot",
    "add_snapshot_listener",
    "merge_snapshots",
    "notify_snapshot_listeners",
    "remove_snapshot_listener",
]

# Canonical counter names shared by every runner. Keeping them as module
# constants (rather than stringly-typed call sites) is what lets the
# reporters stay in sync with the runners.
HITS = "policy.hits"
MISSES = "policy.misses"
ACCESSES = "policy.accesses"
TOTAL_REQUESTS = "run.requests"
DEGRADED_READS = "resilience.degraded_reads"
RETRIES = "resilience.retries"
OPEN_REJECTIONS = "resilience.open_rejections"
BREAKER_OPENS = "resilience.breaker_opens"
BREAKER_CLOSES = "resilience.breaker_closes"
FAILED_INVALIDATIONS = "resilience.failed_invalidations"
INCORRECT_READS = "verify.incorrect_reads"

# Replicated hot-key tier counters (published only on runs with a
# replication-enabled topology; absent counters read as 0).
REPLICA_REFRESHES = "replication.refreshes"
REPLICA_PROMOTIONS = "replication.promotions"
REPLICA_DEMOTIONS = "replication.demotions"
REPLICATED_READS = "replication.replicated_reads"
TWO_CHOICE_READS = "replication.two_choice_reads"
REPLICA_PRIMARY_FALLBACKS = "replication.primary_fallbacks"
REPLICA_INVALIDATIONS = "replication.replica_invalidations"
FAILED_REPLICA_INVALIDATIONS = "replication.failed_invalidations"

# Write-path coherence counters (published only on runs whose topology
# selects a non-default write mode; absent counters read as 0). The
# "write.dirty_buffer_depth" / "write.peak_dirty_depth" gauges ride
# alongside on write-behind runs.
WRITE_STORAGE_WRITES = "write.storage_writes"
WRITE_THROUGH_WRITES = "write.through_writes"
WRITE_BUFFERED = "write.buffered_writes"
WRITE_COALESCED = "write.coalesced_writes"
WRITE_FLUSHED = "write.flushed_writes"
WRITE_FLUSHES = "write.flushes"
WRITE_BOUND_FLUSHES = "write.bound_flushes"
WRITE_LOST = "write.lost_writes"
WRITE_SYNC_FALLBACKS = "write.sync_fallbacks"
WRITE_TTL_EXPIRATIONS = "write.ttl_expirations"

# Hotness-decay counters (published by runs whose elastic clients carry a
# non-trivial DecayPolicy; absent counters read as 0). "triggers" counts
# explicit Algorithm-3 Case-2 decays, "epoch_decays" the continuous
# per-epoch agings applied by ExponentialDecay.
DECAY_TRIGGERS = "decay.triggers"
DECAY_EPOCH_DECAYS = "decay.epoch_decays"

# Adaptive-arbitration counters/gauges (published only on runs whose
# PolicySpec enables arbitration; absent counters read as 0). The
# per-candidate shadow hit rates ride alongside as
# "adaptive.shadow_hit_rate.<policy>" gauges, and "adaptive.regret" is a
# gauge holding the cumulative estimated hit value forgone vs the best
# shadow (scaled back up through the sampling rate).
ADAPTIVE_SWITCHES = "adaptive.switches"
ADAPTIVE_EPOCHS = "adaptive.epochs"
ADAPTIVE_SHADOW_SAMPLES = "adaptive.shadow_samples"
ADAPTIVE_REGRET = "adaptive.regret"

# Network data plane counters (published only on runs whose topology
# enables the NetworkSpec axis; absent counters read as 0).
# bytes_in/bytes_out aggregate both directions of both sides;
# "net.pipelined_batches" counts write-coalescing flushes and the
# NET_BATCH_DEPTH histogram records the depth of each (the
# pipelining-effectiveness distribution, DESIGN.md §15).
NET_CONNECTIONS = "net.connections"
NET_RECONNECTS = "net.reconnects"
NET_REQUESTS = "net.requests"
NET_BATCHES = "net.pipelined_batches"
NET_TIMEOUTS = "net.timeouts"
NET_PROTOCOL_ERRORS = "net.protocol_errors"
NET_FAULT_ERRORS = "net.fault_errors"
NET_BYTES_IN = "net.bytes_in"
NET_BYTES_OUT = "net.bytes_out"

#: histogram of pipelined batch depths (requests per coalesced flush)
NET_BATCH_DEPTH = "net.batch_depth"

#: Canonical histogram name for the per-request latency distribution
#: (timed runners publish it; the Prometheus exporter renders it as a
#: ``*_seconds`` histogram family).
REQUEST_LATENCY = "request.latency"


#: Observers notified with every frozen :class:`TelemetrySnapshot`
#: (read-only: listeners must never mutate runs; the golden tests pin
#: that attaching one is strictly additive). The experiment CLI's
#: ``--metrics-out`` collector plugs in here.
_snapshot_listeners: list[Callable[["TelemetrySnapshot"], None]] = []


def add_snapshot_listener(listener: Callable[["TelemetrySnapshot"], None]) -> None:
    """Subscribe ``listener`` to every snapshot the engine freezes."""
    if listener not in _snapshot_listeners:
        _snapshot_listeners.append(listener)


def remove_snapshot_listener(listener: Callable[["TelemetrySnapshot"], None]) -> None:
    """Unsubscribe a previously-added snapshot listener."""
    try:
        _snapshot_listeners.remove(listener)
    except ValueError:
        pass


def notify_snapshot_listeners(snapshot: "TelemetrySnapshot") -> None:
    """Deliver one already-frozen snapshot to the registered listeners.

    :meth:`TelemetryBus.snapshot` calls this for every snapshot it
    freezes; the parallel fabric calls it directly to *replay* snapshots
    captured inside worker processes (whose listener registrations are
    process-local) into the parent's listeners, in task order — so a
    ``--metrics-out`` collector sees the same snapshot stream whether a
    sweep ran sequentially or fanned out.
    """
    for listener in _snapshot_listeners:
        listener(snapshot)


@dataclass(frozen=True)
class PhaseTelemetry:
    """One fault-schedule phase of a cluster scenario, fully accounted.

    All count fields are *deltas over the phase*, captured from the same
    monotone counters the lifetime snapshot reports; ``epoch_events``
    holds the elastic epochs that closed during the phase.
    """

    index: int
    label: str
    #: shard ids down while the phase ran (set at phase start, after the
    #: phase action fired)
    down: tuple[str, ...]
    reads: int
    hits: int
    degraded_reads: int
    retries: int
    open_rejections: int
    breaker_opens: int
    breaker_closes: int
    incorrect_reads: int
    #: elastic epoch index at phase start (``switch_epoch`` for Figure 8)
    start_epoch: int
    epoch_events: tuple[EpochRecord, ...]

    @property
    def hit_rate(self) -> float:
        """Front-end hit rate over this phase's reads."""
        return self.hits / self.reads if self.reads else 0.0

    @property
    def max_imbalance(self) -> float:
        """Worst per-epoch ``I_c`` closed during the phase.

        A phase in which no epoch closed is *vacuously balanced*: the
        default matches :func:`~repro.cluster.loadmonitor.load_imbalance`'s
        empty-input value of 1.0 (max/min of nothing), so reporters that
        compare phases against ``I_t`` never see an impossible ``I_c`` of
        0 (every real imbalance ratio is >= 1).
        """
        return max((r.snapshot.imbalance for r in self.epoch_events), default=1.0)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable end-of-run view of a scenario's telemetry.

    The generic channels (``counters``/``gauges``) stay available for
    extensions, but the standard measurements all have typed accessors so
    reporters never reach back into live runner objects.
    """

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    #: lifetime lookups per back-end shard (the load-balance measurement)
    shard_loads: Mapping[str, int]
    #: lookups per shard since the last epoch reset (Table 2's window)
    epoch_shard_loads: Mapping[str, int]
    epoch_events: tuple[EpochRecord, ...]
    phases: tuple[PhaseTelemetry, ...]
    #: simulated wall-clock of the run (0 for untimed drive paths)
    runtime: float = 0.0
    per_client_runtime: tuple[float, ...] = ()
    mean_latency: float = 0.0
    #: percentile scalars are *derived* from the latency pipeline (exact
    #: histogram merge / count-weighted reservoir merge) — never from
    #: concatenated per-client reservoirs
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    fallback_latency: float = 0.0
    #: full latency distributions by name (fixed-bucket, exactly merged
    #: across clients); :data:`REQUEST_LATENCY` is the canonical family
    histograms: Mapping[str, LatencyHistogram] = field(default_factory=dict)

    # ------------------------------------------------------ typed accessors

    def counter(self, name: str) -> int:
        """Read one counter (0 when the runner never touched it)."""
        return self.counters.get(name, 0)

    @property
    def hits(self) -> int:
        return self.counter(HITS)

    @property
    def misses(self) -> int:
        return self.counter(MISSES)

    @property
    def accesses(self) -> int:
        return self.counter(ACCESSES)

    @property
    def hit_rate(self) -> float:
        """Front-end hit rate over all policy accesses."""
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    @property
    def total_requests(self) -> int:
        return self.counter(TOTAL_REQUESTS)

    @property
    def degraded_reads(self) -> int:
        return self.counter(DEGRADED_READS)

    @property
    def failed_invalidations(self) -> int:
        return self.counter(FAILED_INVALIDATIONS)

    @property
    def incorrect_reads(self) -> int:
        return self.counter(INCORRECT_READS)

    @property
    def backend_imbalance(self) -> float:
        """Lifetime max/min shard-load ratio."""
        return load_imbalance(dict(self.shard_loads))

    @property
    def throughput(self) -> float:
        """Requests per simulated second (timed runs only)."""
        return self.total_requests / self.runtime if self.runtime else 0.0

    def histogram(self, name: str) -> LatencyHistogram | None:
        """One named latency histogram, or ``None`` if never recorded."""
        return self.histograms.get(name)

    @property
    def request_latency(self) -> LatencyHistogram | None:
        """The canonical per-request latency distribution (timed runs)."""
        return self.histograms.get(REQUEST_LATENCY)


def merge_snapshots(snapshots: "list[TelemetrySnapshot]") -> "TelemetrySnapshot":
    """Merge per-task snapshots into one aggregate view.

    The merge uses the PR 4 primitives and is *order-insensitive* for
    every additive family — counters, shard-load families and fallback
    latency sum; histograms go through the exact fixed-bucket merge —
    so a sweep merged from parallel workers equals the same sweep merged
    sequentially. Order-dependent families keep the input (task) order:
    epoch events and phases concatenate, gauges are last-writer-wins.
    ``runtime`` takes the max (tasks are concurrent, not serial);
    ``mean_latency``/percentile scalars are recomputed from the merged
    :data:`REQUEST_LATENCY` histogram when one exists, else count-weighted
    (mean) or left at 0 (percentiles — raw reservoirs are per-run state
    the snapshot does not carry).
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    shard_loads: dict[str, int] = {}
    epoch_shard_loads: dict[str, int] = {}
    epoch_events: list[EpochRecord] = []
    phases: list[PhaseTelemetry] = []
    histograms: dict[str, LatencyHistogram] = {}
    runtime = 0.0
    fallback_latency = 0.0
    per_client_runtime: list[float] = []
    latency_weighted = 0.0
    for snap in snapshots:
        for name, value in snap.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.gauges)
        for sid, count in snap.shard_loads.items():
            shard_loads[sid] = shard_loads.get(sid, 0) + count
        for sid, count in snap.epoch_shard_loads.items():
            epoch_shard_loads[sid] = epoch_shard_loads.get(sid, 0) + count
        epoch_events.extend(snap.epoch_events)
        phases.extend(snap.phases)
        for name, histogram in snap.histograms.items():
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = histogram.copy()
            else:
                existing.merge(histogram)
        runtime = max(runtime, snap.runtime)
        fallback_latency += snap.fallback_latency
        per_client_runtime.extend(snap.per_client_runtime)
        latency_weighted += snap.mean_latency * snap.counter(TOTAL_REQUESTS)
    total_requests = counters.get(TOTAL_REQUESTS, 0)
    merged_latency = histograms.get(REQUEST_LATENCY)
    if merged_latency is not None and merged_latency.count:
        p50 = merged_latency.percentile(50)
        p99 = merged_latency.percentile(99)
    else:
        p50 = p99 = 0.0
    return TelemetrySnapshot(
        counters=counters,
        gauges=gauges,
        shard_loads=shard_loads,
        epoch_shard_loads=epoch_shard_loads,
        epoch_events=tuple(epoch_events),
        phases=tuple(phases),
        runtime=runtime,
        per_client_runtime=tuple(per_client_runtime),
        mean_latency=latency_weighted / total_requests if total_requests else 0.0,
        p50_latency=p50,
        p99_latency=p99,
        fallback_latency=fallback_latency,
        histograms=histograms,
    )


class TelemetryBus:
    """Mutable collection side of the telemetry pipeline.

    Runners ``inc``/``set_gauge``/``emit_epoch``/``push_phase`` while
    driving; :meth:`snapshot` freezes the state for the reporters.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._shard_loads: dict[str, int] = {}
        self._epoch_shard_loads: dict[str, int] = {}
        self._epoch_events: list[EpochRecord] = []
        self._phases: list[PhaseTelemetry] = []
        self._histograms: dict[str, LatencyHistogram] = {}
        self.runtime: float = 0.0
        self.per_client_runtime: tuple[float, ...] = ()
        self.mean_latency: float = 0.0
        self.p50_latency: float = 0.0
        self.p99_latency: float = 0.0
        self.fallback_latency: float = 0.0

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name``."""
        return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram ``name`` (created lazily)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LatencyHistogram()
        histogram.record(value)

    def record_histogram(self, name: str, histogram: LatencyHistogram) -> None:
        """Publish a pre-built histogram (merged into any existing one)."""
        existing = self._histograms.get(name)
        if existing is None:
            self._histograms[name] = histogram.copy()
        else:
            existing.merge(histogram)

    def histogram(self, name: str) -> LatencyHistogram | None:
        """The live histogram named ``name`` (``None`` if never touched)."""
        return self._histograms.get(name)

    def record_shard_loads(
        self, total: Mapping[str, int], epoch: Mapping[str, int] | None = None
    ) -> None:
        """Publish the per-shard load families (lifetime + epoch window)."""
        self._shard_loads = dict(total)
        if epoch is not None:
            self._epoch_shard_loads = dict(epoch)

    def emit_epoch(self, record: EpochRecord) -> None:
        """Publish one closed elastic epoch."""
        self._epoch_events.append(record)

    def push_phase(self, phase: PhaseTelemetry) -> None:
        """Publish one completed fault-schedule phase."""
        self._phases.append(phase)

    def epoch_events_since(self, start: int) -> tuple[EpochRecord, ...]:
        """Epoch events emitted at or after index ``start``."""
        return tuple(self._epoch_events[start:])

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the bus into an immutable result surface.

        Registered snapshot listeners (:func:`add_snapshot_listener`) are
        notified with the frozen snapshot — the hook the Prometheus
        export surface collects through.
        """
        snap = TelemetrySnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            shard_loads=dict(self._shard_loads),
            epoch_shard_loads=dict(self._epoch_shard_loads),
            epoch_events=tuple(self._epoch_events),
            phases=tuple(self._phases),
            runtime=self.runtime,
            per_client_runtime=self.per_client_runtime,
            mean_latency=self.mean_latency,
            p50_latency=self.p50_latency,
            p99_latency=self.p99_latency,
            fallback_latency=self.fallback_latency,
            histograms={
                name: histogram.copy()
                for name, histogram in self._histograms.items()
            },
        )
        notify_snapshot_listeners(snap)
        return snap
