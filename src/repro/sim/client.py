"""Closed-loop simulated clients (the paper's YCSB client threads).

"Client threads submit access requests back-to-back. Each client thread
can have only one outgoing request. Clients submit a new request as soon
as they receive an acknowledgement for their outgoing request"
(Section 5.1). :class:`SimClient` is that loop on the simulation clock
and nothing else: the protocol is the shipping
:class:`~repro.cluster.client.FrontEndClient`, which each client owns
over a :class:`~repro.sim.plane.SimPlane`. A drawn request is executed at
once — local cache, guard and breaker, shard, storage, backfill,
invalidation — and the shard hops the plane logged are then replayed on
the event heap, which is where the request spends its simulated time.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.obs.hist import LatencyHistogram
from repro.obs.trace import Trace, Tracer
from repro.policies.base import CachePolicy
from repro.sim.events import Simulator
from repro.sim.network import FixedLatency
from repro.sim.plane import SimPlane
from repro.sim.server import SimBackendServer
from repro.workloads.request import OpType

__all__ = ["SimClient"]

#: Cost of one local cache operation (lookup/admit bookkeeping). Heap-based
#: policies do a handful of pointer operations; the paper's uniform-workload
#: experiment confirms the overhead is statistically invisible, and so is
#: this value relative to a 244 µs RTT.
LOCAL_OP_TIME = 2e-6

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
    requests:
        this client's request source: an iterator over exactly its
        ``total_requests`` operations. The runner draws it in chunks from
        the one mixer helper every order shares, so the simulator's event
        heap is a third consumer of the same stream.
    policy:
        this client's local cache policy instance.
    cluster:
        shared *content* cluster (what is stored where, and which shard
        is down); timing is handled by the ``servers`` map.
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
        modeled network/queueing/service time it covers. It is not
        handed to the front end, whose stages would be wall-clock.
    """

    def __init__(
        self,
        client_id: int,
        sim: Simulator,
        requests: Iterator[Any],
        policy: CachePolicy,
        cluster: CacheCluster,
        servers: dict[str, SimBackendServer],
        latency: FixedLatency,
        total_requests: int,
        tracer: Tracer | None = None,
    ) -> None:
        self.client_id = client_id
        self.sim = sim
        self.requests = requests
        self.policy = policy
        self.cluster = cluster
        self.servers = servers
        self.latency = latency
        self.total_requests = total_requests
        plane = SimPlane(cluster)
        #: the production client: degraded reads, lost invalidations,
        #: retries and breaker trips are counted where it counts them
        self.front_end = FrontEndClient(plane, policy, client_id=f"sim-{client_id}")
        self.completed = 0
        self.finish_time: float | None = None
        #: total simulated latency degraded reads cost (seconds)
        self.fallback_latency_sum = 0.0
        #: full latency distribution (and its exact running sum, ``total``)
        #: — load-imbalance hurts the tail first, so the harness reports
        #: p50/p99 too. Fixed buckets merge *exactly* across clients, which
        #: is what the engine freezes into the snapshot.
        self.latency_histogram = LatencyHistogram()
        self.tracer = tracer
        self._started_at = 0.0
        # The request in flight: its hops, those not yet replayed, its
        # degraded reads, its trace if sampled.
        self._hops = plane.hops
        self._todo = iter(self._hops)
        self._degraded = 0
        self._trace: Trace | None = None

    # ------------------------------------------------------------------ api

    def start(self) -> None:
        """Arm the closed loop (call before ``sim.run``)."""
        self.sim.schedule(0.0, self._issue_next)

    # ------------------------------------------------------------ internals

    def _issue_next(self) -> None:
        if self.completed >= self.total_requests:
            self.finish_time = self.sim.now
            return
        self._started_at = self.sim.now
        request = next(self.requests)
        self._hops.clear()
        # O(1), and lifetime here: nothing closes this front end's epochs.
        monitor = self.front_end.monitor
        degraded_before = monitor.epoch_degraded()
        self.front_end.execute(request)
        self._degraded = monitor.epoch_degraded() - degraded_before
        self._todo = iter(self._hops)
        if self.tracer is not None:
            self._trace = self._start_trace(request)
        self._next_hop()

    def _start_trace(self, request: Any) -> Trace | None:
        """Begin a sampled trace on the simulation clock (or ``None``)."""
        read = getattr(request, "op", OpType.GET) is OpType.GET
        trace = self.tracer.start(
            "request.get" if read else "request.set", at=self.sim.now
        )
        if trace is not None:
            landed = {verb for _shard, verb, ok in self._hops if ok}
            if self._degraded:
                outcome = "degraded"
            elif not read:
                outcome = "invalidated" if "delete" in landed else "lost_invalidation"
            elif "set" in landed:
                outcome = "layer_miss"
            else:
                outcome = "miss" if landed else "hit"
            trace.note("key", getattr(request, "key", None))
            trace.note("outcome", outcome)
        return trace

    def _next_hop(self) -> None:
        """Spend the simulated time of the next logged hop, or finish.

        A landed ``get`` / ``get_many`` / ``delete`` costs one way out,
        the shard's FCFS line and one way back; a hop that raised, the way
        out plus the request timer; a ``set`` is a read's backfill and
        rides the lookup's reply for free. A degraded read pays storage
        last; what comes first pays the local operation. Sampled, each
        cost is a span, so the spans tile the request.
        """
        sim, trace = self.sim, self._trace
        now = sim.now
        local = LOCAL_OP_TIME if now == self._started_at else 0.0
        if trace is not None and local:
            read = trace.name == "request.get"
            trace.add_span("frontend.lookup" if read else "storage.write", now, now + local)
        for shard, verb, landed in self._todo:
            if verb != "set":
                break
        else:
            delay = local
            if self._degraded:
                extra = STORAGE_FALLBACK_TIME + self.latency.one_way()
                self.fallback_latency_sum += extra
                delay += extra
                if trace is not None:
                    trace.add_span("storage.degraded_read", now + local, now + delay)
            if delay:
                sim.schedule(delay, self._complete)
            else:
                self._complete()
            return
        timed = self.servers[shard]
        delay = local + self.latency.one_way()
        arrived = now + delay
        stage = "shard.invalidate" if verb == "delete" else "shard.service"
        if trace is not None:
            trace.add_span("net.request", now + local, arrived, shard=shard)

        def _arrive() -> None:
            if landed:
                timed.submit(sim, _served)
                return
            detect = timed.model.failure_detect_time
            if trace is not None:
                trace.add_span(stage, arrived, arrived + detect, shard=shard, failed=True)
            sim.schedule(detect, self._next_hop)

        def _served() -> None:
            reply = self.latency.one_way()
            if trace is not None:
                trace.add_span(stage, arrived, sim.now, shard=shard)
                trace.add_span("net.reply", sim.now, sim.now + reply)
            sim.schedule(reply, self._next_hop)

        sim.schedule(delay, _arrive)

    def _complete(self) -> None:
        self.completed += 1
        self.latency_histogram.record(self.sim.now - self._started_at)
        trace = self._trace
        if trace is not None:
            self._trace = None
            self.tracer.finish(trace, at=self.sim.now)
        self._issue_next()
