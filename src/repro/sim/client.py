"""Closed-loop simulated clients (the paper's YCSB client threads).

"Client threads submit access requests back-to-back. Each client thread
can have only one outgoing request. Clients submit a new request as soon
as they receive an acknowledgement for their outgoing request"
(Section 5.1). :class:`SimClient` reproduces exactly that loop on the
simulation clock, running the same client-driven protocol as the live
:class:`~repro.cluster.client.FrontEndClient` — local cache first, then
the owning shard, with writes invalidating both tiers.
"""

from __future__ import annotations

from repro.cluster.cluster import CacheCluster
from repro.obs.hist import LatencyHistogram
from repro.obs.trace import Tracer
from repro.policies.base import MISSING, CachePolicy
from repro.sim.events import Simulator
from repro.sim.network import LatencyModel
from repro.sim.server import SimBackendServer
from repro.workloads.mixer import OperationMixer
from repro.workloads.request import OpType

__all__ = ["SimClient"]

#: Cost of one local cache operation (lookup/admit bookkeeping). Heap-based
#: policies do a handful of pointer operations; the paper's uniform-workload
#: experiment confirms the overhead is statistically invisible, and so is
#: this value relative to a 244 µs RTT.
LOCAL_OP_TIME = 2e-6

#: Requests prefetched from the mixer per refill. Drawing in batches uses
#: the generators' loop-hoisted ``keys_array`` path; because the key stream
#: and the read/update coin come from independent RNGs, the batched stream
#: is identical to one-at-a-time draws. Capped by the client's remaining
#: quota so exactly ``total_requests`` operations are ever drawn.
REQUEST_BATCH = 512

#: Extra service time of a degraded read: the persistent store is slower
#: than a cache shard (disk/SSD + request handling), so falling back when
#: a shard is down costs this much on top of the network hops.
STORAGE_FALLBACK_TIME = 500e-6


class SimClient:
    """One closed-loop client thread with its own front-end cache.

    Parameters
    ----------
    client_id:
        index used for reporting.
    sim:
        shared simulation kernel.
    mixer:
        request source (keys + read/update mix).
    policy:
        this client's local cache policy instance.
    cluster:
        shared *content* cluster (what is stored where); timing is handled
        by the ``servers`` map.
    servers:
        shard id → :class:`SimBackendServer` timing models.
    latency:
        network latency model.
    total_requests:
        how many operations this client issues before stopping.
    tracer:
        optional sampling :class:`~repro.obs.trace.Tracer`; sampled
        requests record span trees on *simulated* timestamps (explicit
        ``at=`` times, not wall clock), so a span's duration is the
        modeled network/queueing/service time it covers.
    """

    def __init__(
        self,
        client_id: int,
        sim: Simulator,
        mixer: OperationMixer,
        policy: CachePolicy,
        cluster: CacheCluster,
        servers: dict[str, SimBackendServer],
        latency: LatencyModel,
        total_requests: int,
        tracer: Tracer | None = None,
    ) -> None:
        self.client_id = client_id
        self.sim = sim
        self.mixer = mixer
        self.policy = policy
        self.cluster = cluster
        self.servers = servers
        self.latency = latency
        self.total_requests = total_requests
        self.completed = 0
        self.finish_time: float | None = None
        self.latencies_sum = 0.0
        #: reads served from storage because the owning shard was down
        self.degraded_reads = 0
        #: total extra latency those fallbacks cost (seconds)
        self.fallback_latency_sum = 0.0
        #: shard-side invalidations lost to a down shard on the write path
        self.failed_invalidations = 0
        #: full latency distribution — load-imbalance hurts the tail first,
        #: so the harness reports p50/p99 too. Fixed buckets merge *exactly*
        #: across clients, which is what the engine publishes to the bus.
        self.latency_histogram = LatencyHistogram()
        self.tracer = tracer
        self._active_trace = None
        self._started_at = 0.0
        self._pending: list = []
        self._pending_idx = 0

    # ------------------------------------------------------------------ api

    def start(self) -> None:
        """Arm the closed loop (call before ``sim.run``)."""
        self.sim.schedule(0.0, self._issue_next)

    @property
    def mean_latency(self) -> float:
        """Average per-request latency in seconds."""
        return self.latencies_sum / self.completed if self.completed else 0.0

    # ------------------------------------------------------------ internals

    def _issue_next(self) -> None:
        if self.completed >= self.total_requests:
            self.finish_time = self.sim.now
            return
        self._started_at = self.sim.now
        idx = self._pending_idx
        if idx >= len(self._pending):
            remaining = self.total_requests - self.completed
            batch = REQUEST_BATCH if remaining > REQUEST_BATCH else remaining
            self._pending = self.mixer.next_requests(batch)
            idx = 0
        self._pending_idx = idx + 1
        request = self._pending[idx]
        if request.op is OpType.GET:
            self._do_get(request.key)
        else:
            self._do_set(request.key, request.value)

    def _complete(self) -> None:
        self.completed += 1
        elapsed = self.sim.now - self._started_at
        self.latencies_sum += elapsed
        self.latency_histogram.record(elapsed)
        trace = self._active_trace
        if trace is not None:
            self._active_trace = None
            self.tracer.finish(trace, at=self.sim.now)
        self._issue_next()

    def _start_trace(self, name: str, key: str):
        """Begin a sampled trace on the simulation clock (or ``None``)."""
        tracer = self.tracer
        if tracer is None:
            return None
        trace = tracer.start(name, at=self.sim.now)
        if trace is not None:
            trace.note("key", key)
            self._active_trace = trace
        return trace

    def _do_get(self, key: str) -> None:
        trace = self._start_trace("request.get", key)
        issued = self.sim.now
        value = self.policy.lookup(key)
        if value is not MISSING:
            # Local hit: served after the local bookkeeping cost only.
            if trace is not None:
                trace.note("outcome", "hit")
                trace.add_span("frontend.lookup", issued, issued + LOCAL_OP_TIME)
            self.sim.schedule(LOCAL_OP_TIME, self._complete)
            return
        backend = self.cluster.server_for(key)
        shard = backend.server_id
        timed = self.servers[shard]
        one_way = self.latency.one_way()
        if trace is not None:
            trace.note("outcome", "miss")
            trace.add_span("frontend.lookup", issued, issued + LOCAL_OP_TIME)
            trace.add_span(
                "net.request",
                issued + LOCAL_OP_TIME,
                issued + LOCAL_OP_TIME + one_way,
                shard=shard,
            )

        def _arrive() -> None:
            arrived = self.sim.now

            def _served() -> None:
                served = self.sim.now
                value = backend.get(key)
                if value is MISSING:
                    # Caching-layer miss: fetch from storage and populate.
                    value = self.cluster.storage.get(key)
                    backend.set(key, value)
                    if trace is not None:
                        trace.note("outcome", "layer_miss")
                reply = self.latency.one_way()
                if trace is not None:
                    trace.add_span("shard.service", arrived, served, shard=shard)
                    trace.add_span("net.reply", served, served + reply)
                self.sim.schedule(reply, lambda: self._receive(key, value))

            def _failed() -> None:
                # Degraded read: the shard is down, so the value comes
                # straight from authoritative storage (correct, slower).
                value = self.cluster.storage.get(key)
                self.degraded_reads += 1
                extra = STORAGE_FALLBACK_TIME + self.latency.one_way()
                self.fallback_latency_sum += extra
                if trace is not None:
                    trace.note("outcome", "degraded")
                    trace.add_span(
                        "storage.degraded_read",
                        self.sim.now,
                        self.sim.now + extra,
                        shard=shard,
                    )
                self.sim.schedule(extra, lambda: self._receive(key, value))

            timed.submit(self.sim, _served, on_error=_failed)

        self.sim.schedule(LOCAL_OP_TIME + one_way, _arrive)

    def _receive(self, key: str, value: object) -> None:
        self.policy.admit(key, value)
        self._complete()

    def _do_set(self, key: str, value: object) -> None:
        # Client-driven write path: storage write, local invalidation, and
        # a delete at the owning shard; the ack costs one RTT plus the
        # shard's service line (deletes queue like gets do).
        trace = self._start_trace("request.set", key)
        issued = self.sim.now
        self.cluster.storage.set(key, value)
        self.policy.record_update(key)
        backend = self.cluster.server_for(key)
        shard = backend.server_id
        timed = self.servers[shard]
        one_way = self.latency.one_way()
        if trace is not None:
            trace.add_span("storage.write", issued, issued + LOCAL_OP_TIME)
            trace.add_span(
                "net.request",
                issued + LOCAL_OP_TIME,
                issued + LOCAL_OP_TIME + one_way,
                shard=shard,
            )

        def _arrive() -> None:
            arrived = self.sim.now

            def _served() -> None:
                backend.delete(key)
                reply = self.latency.one_way()
                if trace is not None:
                    trace.add_span(
                        "shard.invalidate", arrived, self.sim.now, shard=shard
                    )
                    trace.add_span("net.reply", self.sim.now, self.sim.now + reply)
                self.sim.schedule(reply, self._complete)

            def _failed() -> None:
                # The storage write already landed; only the shard-side
                # invalidation is lost (repaired by cold revival).
                self.failed_invalidations += 1
                if trace is not None:
                    trace.note("outcome", "lost_invalidation")
                self.sim.schedule(self.latency.one_way(), self._complete)

            timed.submit(self.sim, _served, on_error=_failed)

        self.sim.schedule(LOCAL_OP_TIME + one_way, _arrive)
