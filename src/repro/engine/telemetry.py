"""Typed telemetry for scenario runs.

Every layer keeps its own stats object; :data:`CATALOGUE` names each
metric once and says which field of which object it is, and
:func:`collect` reads them all at any moment. At the end of a run the
runner freezes that reading, beside what only it knows — per-shard load
families, epoch events (the elastic controller's
:class:`~repro.core.epoch.EpochRecord` stream) and phase marks
(fault-schedule segments) — into one :class:`TelemetrySnapshot`, the
typed surface reporters and the Prometheus exporter read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, methodcaller
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.cluster.loadmonitor import load_imbalance
from repro.core.epoch import EpochRecord
from repro.obs.hist import LatencyHistogram

__all__ = [
    "ACCESSES",
    "BY_NAME",
    "CATALOGUE",
    "DEGRADED_READS",
    "ELASTIC_ALPHA_TARGET",
    "ELASTIC_FINAL_CACHE",
    "ELASTIC_FINAL_TRACKER",
    "FAILED_INVALIDATIONS",
    "FAILED_REPLICA_INVALIDATIONS",
    "HITS",
    "INCORRECT_READS",
    "MISSES",
    "NET_BATCH_DEPTH",
    "REPLICATED_READS",
    "REPLICA_DEMOTIONS",
    "REPLICA_PROMOTIONS",
    "REQUEST_LATENCY",
    "TOTAL_REQUESTS",
    "WRITE_LOST",
    "Collected",
    "Metric",
    "PhaseTelemetry",
    "TelemetrySnapshot",
    "add_snapshot_listener",
    "collect",
    "notify_snapshot_listeners",
    "remove_snapshot_listener",
]

# The names a reporter or a typed accessor reads. Every other metric is
# named once, in its CATALOGUE row; ``scripts/verify.sh`` fails on a
# catalogued name spelled as a string literal anywhere else in src/repro.
HITS = "policy.hits"
MISSES = "policy.misses"
ACCESSES = "policy.accesses"
TOTAL_REQUESTS = "run.requests"
DEGRADED_READS = "resilience.degraded_reads"
FAILED_INVALIDATIONS = "resilience.failed_invalidations"
INCORRECT_READS = "verify.incorrect_reads"
REPLICA_PROMOTIONS = "replication.promotions"
REPLICA_DEMOTIONS = "replication.demotions"
REPLICATED_READS = "replication.replicated_reads"
FAILED_REPLICA_INVALIDATIONS = "replication.failed_invalidations"
WRITE_LOST = "write.lost_writes"
ELASTIC_FINAL_CACHE = "elastic.final_cache"
ELASTIC_FINAL_TRACKER = "elastic.final_tracker"
ELASTIC_ALPHA_TARGET = "elastic.alpha_target"
#: requests per socket write (the pipelining-effectiveness distribution)
NET_BATCH_DEPTH = "net.batch_depth"
#: the per-request latency distribution of timed runs
REQUEST_LATENCY = "request.latency"


@dataclass(frozen=True)
class Metric:
    """One catalogue row: a named value and the stats field it is read off.

    ``source`` names the list of live objects a run files for it (see
    :func:`collect`); ``field`` is an attribute path on each, or a
    ``method()`` to call. Counters and gauges sum over the objects; a
    histogram merges :class:`LatencyHistogram` objects or ``{value: count}``
    tallies; a gauge with a ``weight`` field reads a ``{label: value}``
    mapping per object and is the weighted mean, named ``name.label``.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    source: str
    field: str
    help: str
    weight: str = ""


_C, _G, _H = "counter", "gauge", "histogram"
#: Every metric a run can publish. A source a run does not file (no
#: router, write policy, arbiter, plane, ...) keeps its rows off the page.
CATALOGUE: tuple[Metric, ...] = (
    Metric(HITS, _C, "accesses", "policy", "hits", "front-end cache hits"),
    Metric(MISSES, _C, "accesses", "policy", "misses", "front-end cache misses"),
    Metric(ACCESSES, _C, "accesses", "policy", "accesses",
           "front-end policy accesses (hits + misses)"),
    # source "run": no stats field — the runner files these two itself as it drives
    Metric(TOTAL_REQUESTS, _C, "requests", "run", "", "requests the run drove"),
    Metric(INCORRECT_READS, _C, "reads", "run", "",
           "reads that disagreed with `verify_value`, filed as they happen"),
    Metric(DEGRADED_READS, _C, "reads", "monitor", "degraded_reads()",
           "reads served by storage because their shard was unavailable"),
    Metric("resilience.retries", _C, "attempts", "guard", "retries",
           "shard attempts that retried a failed attempt"),
    Metric("resilience.open_rejections", _C, "requests", "guard", "open_rejections",
           "shard operations rejected at once by an open breaker"),
    Metric(FAILED_INVALIDATIONS, _C, "writes", "guard", "lost_invalidations",
           "write-path invalidations that could not reach their shard"),
    Metric("resilience.breaker_opens", _C, "transitions", "breaker", "opens",
           "circuit breakers tripped open"),
    Metric("resilience.breaker_closes", _C, "transitions", "breaker", "closes",
           "circuit breakers closed again by a successful probe"),
    Metric("replication.refreshes", _C, "epochs", "router", "stats.refreshes",
           "promotion epochs the hot-key router completed"),
    Metric(REPLICA_PROMOTIONS, _C, "keys", "router", "stats.promotions",
           "keys promoted to the replicated tier"),
    Metric(REPLICA_DEMOTIONS, _C, "keys", "router", "stats.demotions",
           "keys demoted from the replicated tier"),
    Metric(REPLICATED_READS, _C, "reads", "router", "stats.replicated_reads",
           "reads served through the replicated path"),
    Metric("replication.two_choice_reads", _C, "reads", "router", "stats.two_choice_reads",
           "replicated reads that compared two or more alive replicas"),
    Metric("replication.primary_fallbacks", _C, "reads", "router", "stats.primary_fallbacks",
           "replicated reads with no eligible replica, served by the primary"),
    Metric("replication.replica_invalidations", _C, "writes", "router",
           "stats.replica_invalidations", "shard deletes fanned out by replicated writes"),
    Metric(FAILED_REPLICA_INVALIDATIONS, _C, "writes", "router",
           "stats.failed_replica_invalidations", "fanned-out deletes that missed their shard"),
    Metric("replication.active_keys", _G, "keys", "router", "__len__()",
           "keys replicated when the run ended"),
    Metric("write.storage_writes", _C, "writes", "write", "stats.storage_writes",
           "authoritative storage mutations, foreground or flush"),
    Metric("write.through_writes", _C, "writes", "write", "stats.through_writes",
           "shard sets that landed on the write path (write-through)"),
    Metric("write.buffered_writes", _C, "writes", "write", "stats.buffered_writes",
           "writes acknowledged into a dirty buffer (write-behind)"),
    Metric("write.coalesced_writes", _C, "writes", "write", "stats.coalesced_writes",
           "buffered writes that overwrote an already-dirty entry"),
    Metric("write.flushed_writes", _C, "writes", "write", "stats.flushed_writes",
           "dirty entries made durable by a flush"),
    Metric("write.flushes", _C, "flushes", "write", "stats.flushes",
           "flush passes: cadence, bound-triggered or the final drain"),
    Metric("write.bound_flushes", _C, "flushes", "write", "stats.bound_flushes",
           "flushes forced by a buffer reaching `dirty_limit`"),
    Metric(WRITE_LOST, _C, "writes", "write", "stats.lost_writes",
           "acknowledged writes that died with a shard's queue"),
    Metric("write.sync_fallbacks", _C, "writes", "write", "stats.sync_fallbacks",
           "write-behind writes made synchronously, their shard being down"),
    Metric("write.ttl_expirations", _C, "keys", "write", "stats.ttl_expirations",
           "cached copies expired by the TTL clock"),
    Metric("write.dirty_buffer_depth", _G, "writes", "write", "dirty_depth()",
           "dirty entries buffered (end of run: before the final drain)"),
    Metric("write.peak_dirty_depth", _G, "writes", "write", "stats.peak_dirty",
           "deepest any shard's dirty buffer got"),
    Metric(ELASTIC_FINAL_CACHE, _G, "lines", "elastic", "cot.capacity",
           "cache size C the run's one elastic front end converged to"),
    Metric(ELASTIC_FINAL_TRACKER, _G, "lines", "elastic", "cot.tracker_capacity",
           "tracker size K the run's one elastic front end converged to"),
    Metric(ELASTIC_ALPHA_TARGET, _G, "ratio", "elastic", "controller.alpha_target",
           "hit-value ratio the controller holds once `I_t` is met"),
    Metric("decay.triggers", _C, "decays", "decay", "triggers",
           "explicit Algorithm-3 Case-2 half-life decays"),
    Metric("decay.epoch_decays", _C, "decays", "decay", "epoch_decays",
           "continuous per-epoch agings (`ExponentialDecay`)"),
    Metric("adaptive.switches", _C, "switches", "arbiter", "switches",
           "live-policy switches the arbiter made"),
    Metric("adaptive.epochs", _C, "epochs", "arbiter", "epochs",
           "arbitration epochs closed"),
    Metric("adaptive.shadow_samples", _C, "accesses", "arbiter", "samples",
           "accesses sampled into the shadow policies"),
    Metric("adaptive.regret", _G, "hits", "arbiter", "regret",
           "estimated hits forgone against the best shadow (sampling scaled out)"),
    Metric("adaptive.shadow_hit_rate", _G, "ratio", "arbiter", "shadow_hit_rates()",
           "lifetime hit rate of each shadow policy", weight="samples"),
    Metric("net.connections", _C, "sockets", "net_client", "connections",
           "client sockets opened"),
    Metric("net.reconnects", _C, "sockets", "net_client", "reconnects",
           "client sockets reopened after one was lost"),
    Metric("net.requests", _C, "requests", "net_client", "requests",
           "requests the client put on the wire"),
    Metric("net.pipelined_batches", _C, "sends", "net_client", "batches",
           "client socket writes, each carrying one or more requests"),
    Metric("net.timeouts", _C, "requests", "net_client", "timeouts",
           "requests that outlived their deadline"),
    Metric("net.refused", _C, "sockets", "net_server", "refused",
           "connections a shard server turned away at its connection cap"),
    Metric("net.protocol_errors", _C, "frames", "net_server", "protocol_errors",
           "frames a shard server refused as malformed"),
    Metric("net.fault_errors", _C, "requests", "net_server", "fault_errors",
           "requests a shard server answered with an injected fault"),
    Metric("net.bytes_in", _C, "bytes", "net_ends", "bytes_in",
           "bytes received, both ends of every socket"),
    Metric("net.bytes_out", _C, "bytes", "net_ends", "bytes_out",
           "bytes sent, both ends of every socket"),
    Metric(NET_BATCH_DEPTH, _H, "requests", "net_ends", "batch_depths",
           "requests carried per socket write, both ends"),
    Metric(REQUEST_LATENCY, _H, "seconds", "sim", "latency_histogram",
           "per-request latency of a timed run, merged exactly across clients"),
)
BY_NAME = {metric.name: metric for metric in CATALOGUE}

Collected = NamedTuple(
    "Collected", [("counters", dict), ("gauges", dict), ("histograms", dict)]
)


def _reader(path: str) -> Callable[[Any], Any]:
    return methodcaller(path[:-2]) if path.endswith("()") else attrgetter(path)


def collect(sources: Mapping[str, Sequence[Any]]) -> Collected:
    """Every catalogued value the filed ``sources`` can answer, read now.

    ``sources`` maps a row's ``source`` to the live objects to read; a
    row whose source is missing or empty is skipped, which keeps its name
    off the page. Reading changes nothing a run can see, so a phase delta
    is two calls subtracted.
    """
    got = Collected({}, {}, {})
    for metric in CATALOGUE:
        objects = sources.get(metric.source)
        if not objects:
            continue
        read = _reader(metric.field)
        if metric.kind == _H:
            histogram = LatencyHistogram()
            for reading in map(read, objects):
                if isinstance(reading, LatencyHistogram):
                    histogram.merge(reading)
                else:
                    for value, count in sorted(reading.items()):
                        histogram.record_many(repeat(float(value), count))
            if histogram.count:
                got.histograms[metric.name] = histogram
        elif metric.weight:
            weigh = _reader(metric.weight)
            totals: dict[str, float] = {}
            weights: dict[str, int] = {}
            for obj in objects:
                weight = weigh(obj) or 1
                for label, value in read(obj).items():
                    totals[label] = totals.get(label, 0.0) + value * weight
                    weights[label] = weights.get(label, 0) + weight
            for label, total in totals.items():
                got.gauges[f"{metric.name}.{label}"] = total / weights[label]
        else:
            values = got.counters if metric.kind == _C else got.gauges
            values[metric.name] = sum(map(read, objects))
    return got


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

    The runners' one publish tail calls this for every snapshot it
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

    @classmethod
    def between(
        cls, before: Mapping[str, int], after: Mapping[str, int], **fields: Any
    ) -> "PhaseTelemetry":
        """A phase whose counts are ``after - before``: the counters of two
        :func:`collect` readings of one run's sources, taken at its two ends."""
        names = {
            "hits": HITS,
            "degraded_reads": DEGRADED_READS,
            "retries": "resilience.retries",
            "open_rejections": "resilience.open_rejections",
            "breaker_opens": "resilience.breaker_opens",
            "breaker_closes": "resilience.breaker_closes",
        }
        deltas = {f: after.get(n, 0) - before.get(n, 0) for f, n in names.items()}
        return cls(**deltas, **fields)

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
    """Immutable end-of-run view of a scenario's telemetry, frozen once
    per run by the runners' publish tail.

    The generic channels (``counters``/``gauges``) stay available for
    extensions, but the standard measurements all have typed accessors so
    reporters never reach back into live runner objects.
    """

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    #: lifetime lookups per back-end shard (the load-balance measurement)
    shard_loads: Mapping[str, int] = field(default_factory=dict)
    #: lookups per shard since the last epoch reset (Table 2's window)
    epoch_shard_loads: Mapping[str, int] = field(default_factory=dict)
    epoch_events: tuple[EpochRecord, ...] = ()
    phases: tuple[PhaseTelemetry, ...] = ()
    #: simulated wall-clock of the run (0 for untimed drive paths)
    runtime: float = 0.0
    #: accounted extra latency of storage-fallback reads; only a timed
    #: (simulated) run accounts it, so ``None`` elsewhere — not a 0
    fallback_latency: float | None = None
    #: full latency distributions by name (fixed-bucket, exactly merged
    #: across clients); :data:`REQUEST_LATENCY` is the canonical family,
    #: and the ``*_latency`` scalars are read off it
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

    @property
    def mean_latency(self) -> float:
        """Mean request latency (0.0 on untimed runs)."""
        histogram = self.request_latency
        if histogram is None or not self.total_requests:
            return 0.0
        return histogram.total / self.total_requests

    @property
    def p50_latency(self) -> float:
        """Median request latency (0.0 on untimed runs)."""
        return self._request_percentile(50)

    @property
    def p99_latency(self) -> float:
        """p99 request latency (0.0 on untimed runs)."""
        return self._request_percentile(99)

    def _request_percentile(self, q: float) -> float:
        histogram = self.request_latency
        return histogram.percentile(q) if histogram is not None and histogram.count else 0.0
