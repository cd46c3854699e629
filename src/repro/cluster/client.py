"""The front-end cache client (the paper's modified spymemcached role).

:class:`FrontEndClient` implements the client-driven protocol of Section 2
end to end:

* **get** — try the local front-end cache; on a miss, route to the owning
  shard via consistent hashing (recording the lookup in the local load
  monitor); on a caching-layer miss, read from persistent storage and
  *populate both* the shard and (subject to the policy's admission filter)
  the local cache.
* **set** — write to persistent storage, invalidate the local copy
  (penalizing hotness under CoT's dual-cost model via
  ``policy.record_update``), and send a delete to the caching layer —
  or, with a write-path strategy attached, whatever its ``on_set`` does.
* **delete** — delete from storage, invalidate locally, delete in the
  caching layer, in every mode (a strategy only keeps its books first).

The client is policy-agnostic: any :class:`~repro.policies.base.CachePolicy`
(including :class:`~repro.core.cache.CoTCache`) plugs in unchanged, which
is how all the comparison experiments share one code path.

Each step exists once. :meth:`FrontEndClient._fetch_from_backend` is the
only miss body: a sampled request marks stage starts on its trace as it
runs through it, and when a :class:`~repro.cluster.replication.HotKeyRouter`
is attached (:meth:`FrontEndClient.attach_router`) a promoted key only
changes which shard it asks — power-of-two-choices over this front end's
per-shard load window, dead replicas excluded via the circuit breakers.
Writes to such keys go through the one :meth:`FrontEndClient._fan_out`, to
every shard that may hold a copy. With no router attached — the default —
every path is byte-for-byte the classic single-owner protocol. A lost
shard write is counted where the write is made, in this module.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.cluster.cluster import CacheCluster
from repro.cluster.loadmonitor import LoadMonitor
from repro.cluster.replication import CHOICES, HotKeyRouter, ReplicaEntry
from repro.cluster.retry import BreakerState, ClusterGuard
from repro.errors import ClusterError, ShardUnavailableError
from repro.obs.trace import Trace, Tracer
from repro.policies.base import MISSING, CachePolicy
from repro.workloads.request import OpType
from repro.workloads.ycsb import ScanRequest

if TYPE_CHECKING:  # cycle-free: writepolicy only names this class in hints
    from repro.cluster.writepolicy import (
        TTLWritePolicy,
        WriteBehindPolicy,
        WritePolicy,
    )

__all__ = ["FrontEndClient"]


class FrontEndClient:
    """One stateless front-end server's caching client.

    Every shard request goes through a :class:`ClusterGuard` — bounded
    immediate retries for transient failures and a per-shard circuit
    breaker. When a shard is unavailable (breaker open / retries
    exhausted) reads degrade gracefully to persistent storage and are
    counted as *degraded reads* in the load monitor; writes lose only the
    shard-side invalidation (the authoritative storage write always
    lands), which is repaired when the shard revives cold.

    Parameters
    ----------
    cluster:
        the shared back-end cluster.
    policy:
        this front end's local cache replacement policy.
    client_id:
        identity used in experiment output.
    guard:
        retry/breaker layer; a default-configured one is built when
        omitted.
    tracer:
        optional sampling :class:`~repro.obs.trace.Tracer`; a sampled
        read records the stages it went through (front-end cache → ring
        route → shard lookup → storage fallback → backfill → admission).
        The same calls run sampled or not, so outputs match at any rate.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        policy: CachePolicy,
        client_id: str = "front-0",
        guard: ClusterGuard | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.client_id = client_id
        self.monitor = LoadMonitor(cluster.server_ids)
        self.guard = guard or ClusterGuard(cluster.server_ids)
        self.tracer = tracer
        #: replicated hot-key tier; ``None`` keeps the classic protocol
        self.router: HotKeyRouter | None = None
        #: bound ``router.routes`` dict — one ``dict.get`` per miss is the
        #: entire hot-path cost of an attached (but idle) tier
        self._routes: dict[Hashable, ReplicaEntry] | None = None
        self._route_rng: random.Random | None = None
        #: write-path coherence strategy; ``None`` runs the inline
        #: cache-aside body below, byte-for-byte the classic protocol
        self.write_policy: "WritePolicy | None" = None
        #: the attached policy again iff it needs the read-path TTL /
        #: dirty-buffer hooks — kept as dedicated slots so the default
        #: mode pays one ``is None`` test, never an isinstance
        self._write_ttl: "TTLWritePolicy | None" = None
        self._write_behind: "WriteBehindPolicy | None" = None
        #: the sampled request in flight, if any: set and cleared by
        #: :meth:`get`, read by the miss body — nobody configures it
        self._trace: Trace | None = None
        # Purge per-shard routing state the moment a shard is scaled in:
        # a forgotten breaker / load-window entry keyed on the departed id
        # would otherwise linger forever and poison any later shard that
        # aliased the id.
        cluster.removal_listeners.append(self._on_server_removed)
        cluster.cold_revival_listeners.append(self._on_cold_revival)

    def _on_server_removed(self, server_id: str) -> None:
        """Drop breaker and load-window state of a shard that left."""
        self.guard.forget(server_id)
        self.monitor.forget_server(server_id)

    def _on_cold_revival(self, server_id: str) -> None:
        """Reset this front end's breaker for a shard that revived cold.

        Breaker state must not alias across shard incarnations. The
        zero-stale-read argument needs "breaker not CLOSED ⇒ the shard is
        really down" to hold for *every* front end: a write whose
        shard-side invalidation is skipped by an open breaker is safe
        only while the stale copy is unreachable cluster-wide. A breaker
        left OPEN past a cold revival broke that — the writer kept
        skipping invalidations against a live, wiped shard while other
        front ends (whose breakers were closed) filled it and then read
        the copy the writer never deleted. The failure streak belongs to
        the dead incarnation; the revived shard starts with a clean
        breaker, exactly as a freshly added shard does.
        """
        self.guard.forget(server_id)

    def attach_router(self, router: HotKeyRouter, seed: int = 0) -> None:
        """Join the replicated hot-key tier.

        Binds the router's route table for the read hot path, seeds this
        front end's independent choice RNG, and registers the cold-revival
        hook that zeroes the revived shard's epoch-load window (a wiped
        shard carries zero real load; stale window counts would skew
        two-choices routing — see :meth:`LoadMonitor.reset_server_window`).

        Idempotent with respect to the cluster's listener list: attaching
        twice (or re-attaching a new router) rebinds the route table but
        registers the revival hook only once.
        """
        self.router = router
        self._routes = router.routes
        self._route_rng = random.Random(seed)
        listeners = self.cluster.cold_revival_listeners
        if self.monitor.reset_server_window not in listeners:
            listeners.append(self.monitor.reset_server_window)

    def attach_write_policy(self, policy: "WritePolicy") -> None:
        """Adopt a write-path coherence strategy for this front end.

        One shared :class:`~repro.cluster.writepolicy.WritePolicy`
        instance, built bound to the cluster, serves every front end of a
        run (its dirty buffers and logical clock are cluster state).
        ``set`` dispatches to its ``on_set``; ``delete`` runs its
        ``on_delete`` bookkeeping, then the one delete body. The read
        path additionally gains the policy's TTL-expiry or dirty-buffer
        hooks when the strategy declares it needs them. With no policy
        attached — the default — every path is the inline cache-aside
        protocol, byte-for-byte.
        """
        self.write_policy = policy
        self._write_behind = policy if policy.buffered else None
        self._write_ttl = policy if policy.ttl_hooks else None
        if policy.ttl_hooks:
            policy.attach_local_hygiene(self)

    # ------------------------------------------------------------- protocol

    def get(self, key: Hashable) -> Any:
        """Read path of the client-driven protocol.

        Dispatches through the policy's fused ``get_or_admit`` entry
        point: the policy resolves the key once, and only on a local miss
        does :meth:`_fetch_from_backend` route to a shard. The sampling
        gate is inlined (credit arithmetic, no method call) so a low-rate
        tracer costs almost nothing on unsampled requests (the perf gate
        pins it at <5%). A sampled request makes the same calls: it only
        parks its :class:`Trace` in ``self._trace`` for the miss body to
        mark stage starts on.
        """
        ttl = self._write_ttl
        if ttl is not None:
            ttl.expire_local(self, key)
            was_cached = key in self.policy
        trace = None
        tracer = self.tracer
        if tracer is not None:
            tracer.credit += tracer.sample_rate
            if tracer.credit >= 1.0:
                trace = self._trace = tracer.start_sampled("request.get")
                trace.note("key", key)
                trace.note("outcome", "hit")
                trace.stage("frontend.cache")
                retries_before = self.guard.stats.retries
        try:
            value = self.policy.get_or_admit(key, self._fetch_from_backend)
        finally:
            if trace is not None:
                self._trace = None
                retried = self.guard.stats.retries - retries_before
                if retried:
                    trace.note("retries", retried)
                tracer.finish(trace)
        # Stamp only copies that actually entered the cache: the policy
        # may decline to admit a loader's result (CoT's hotness bar).
        if ttl is not None and not was_cached and key in self.policy:
            ttl.note_local_fill(self.client_id, key)
        return value

    def _fetch_from_backend(self, key: Hashable) -> Any:
        """The miss body — the only one: route, guarded lookup, backfill.

        Routing is the one place the replicated tier differs: a promoted
        key goes to the replica :meth:`_pick_replica` chooses, any other
        to its ring owner. After that it is the classic shard protocol;
        an unavailable shard turns the read into a degraded read, served
        from persistent storage (authoritative, so correct) and counted.
        On a sampled request each step marks where its stage starts
        (``ring.route`` → ``shard.lookup`` → ``storage.degraded_read`` |
        ``storage.fallback`` → ``shard.backfill``, then ``frontend.admit``
        for what the policy does with the value); unsampled, that costs
        one attribute read and a few ``is not None`` tests per miss. One
        function on purpose: a frame more per miss shows on the ladder —
        so without a write-behind policy (the fast path) storage is read
        here; :meth:`_resolve_miss` stays for the dirty-buffer check.
        """
        trace = self._trace
        if trace is not None:
            trace.note("outcome", "miss")
            trace.stage("ring.route")
        routes = self._routes
        if routes is not None and (entry := routes.get(key)) is not None:
            server_id = self._pick_replica(entry)
            server = self.cluster.server(server_id)
        else:
            server = self.cluster.server_for(key)
            server_id = server.server_id
        self.monitor.record_lookup(server_id)
        if trace is not None:
            trace.stage("shard.lookup", shard=server_id)
        ttl = self._write_ttl
        if ttl is not None:
            ttl.expire_shard(self, server_id, key)
        try:
            value = self.guard.call(server_id, lambda: server.get(key))
        except ShardUnavailableError:
            if trace is not None:
                trace.note("outcome", "degraded")
                trace.stage("storage.degraded_read", shard=server_id)
            value = self._degraded_read(server_id, key)
        else:
            if value is MISSING:
                if trace is not None:
                    trace.stage("storage.fallback")
                if self._write_behind is None:
                    value = self.cluster.storage.get(key)
                else:
                    value = self._resolve_miss(key)
                if trace is not None:
                    trace.stage("shard.backfill", shard=server_id)
                self._backfill(server, key, value)
        if trace is not None:
            trace.stage("frontend.admit")
        return value

    def _resolve_miss(self, key: Hashable) -> Any:
        """The value a caching-layer miss resolves to.

        Persistent storage is authoritative — except in write-behind
        mode, where an acknowledged write may still be in a shard's
        dirty buffer: the queue is part of the shard's state, so a miss
        (the shard evicted its copy before the flush) must serve the
        pending value, not the stale durable one.
        """
        wb = self._write_behind
        if wb is not None:
            value = wb.buffered_value(key)
            if value is not MISSING:
                return value
        return self.cluster.storage.get(key)

    def _pick_replica(self, entry: ReplicaEntry) -> str:
        """Replicated-tier routing: power-of-two-choices (``CHOICES``) over
        live replicas.

        The choice set is the entry's eligible replicas (quarantined
        shards already excluded) minus shards whose circuit breaker is
        OPEN — a killed replica falls out within one breaker trip and
        folds back in through the HALF_OPEN probe after it revives. Two
        distinct candidates are compared — the only two when two are
        alive, else two sampled with this front end's seeded RNG — and
        the first with the lightest epoch-load window wins. Only a shard
        id comes back: replication changes which node a read is routed
        to and nothing after that. With every replica OPEN that is the
        primary, whose open breaker fails fast into a degraded read — as
        on the unreplicated path with the owner down.
        """
        router = self.router
        rstats = router.stats
        rstats.replicated_reads += 1
        state = self.guard.state
        open_state = BreakerState.OPEN
        alive = [sid for sid in entry.eligible if state(sid) is not open_state]
        count = len(alive)
        if count == 0:
            rstats.primary_fallbacks += 1
            return entry.replicas[0]
        if count == 1:
            return alive[0]
        rstats.two_choice_reads += 1
        if count > CHOICES:
            rng = self._route_rng
            i = rng.randrange(count)
            j = rng.randrange(count - 1)
            if j >= i:
                j += 1
            alive = [alive[i], alive[j]]
        loads = self.monitor.epoch_window
        return min(alive, key=lambda sid: loads.get(sid, 0))

    def _degraded_read(self, server_id: str, key: Hashable) -> Any:
        """Serve ``key`` from storage because its shard is unavailable."""
        value = self.cluster.storage.get(key)
        self.monitor.record_degraded(server_id)
        return value

    def _backfill(self, server: Any, key: Hashable, value: Any) -> None:
        """Populate a shard after a layer miss; best-effort under faults."""
        try:
            self.guard.call(server.server_id, lambda: server.set(key, value))
        except ShardUnavailableError:
            pass  # the value is safe in storage; the shard warms later
        else:
            ttl = self._write_ttl
            if ttl is not None:
                ttl.note_backfill(server.server_id, key)

    def get_many(self, keys: list[Hashable]) -> dict[Hashable, Any]:
        """Batched read path (spymemcached's getMulti).

        A single page load fetches hundreds of objects (the paper's
        motivating workload). The batch is served in two passes that keep
        the *decisions* identical to sequential :meth:`get` calls:

        1. a side-effect-free ``in policy`` probe splits the batch into
           local hits and prospective misses, groups the misses by owning
           shard (deduplicated), and prefetches each group with one
           batched lookup per shard (layer misses backfilled from
           storage, unavailable shards degrading to storage);
        2. every key then flows through the policy's fused
           ``get_or_admit`` *in original access order*, with a loader
           that serves from the prefetched values — so admission,
           tracking and eviction decisions match the sequential path
           exactly (``tests/test_fastpath_equivalence.py`` pins this).

        A key whose prefetch was invalidated by an earlier admission in
        the same batch (evicted mid-batch, duplicate churn) falls back to
        a normal guarded single-key fetch. Every prefetched key still
        counts as one lookup toward its shard's load.
        """
        policy = self.policy
        ttl = self._write_ttl
        was_cached: dict[Hashable, bool] = {}
        if ttl is not None:
            for key in keys:
                ttl.expire_local(self, key)
            was_cached = {key: key in policy for key in keys}
        prefetched: dict[Hashable, Any] = {}
        misses_by_server: dict[str, list[Hashable]] = {}
        queued: set[Hashable] = set()
        ring_server_for = self.cluster.ring.server_for
        routes = self._routes
        for key in keys:
            if key not in policy and key not in queued:
                queued.add(key)
                if routes is not None and key in routes:
                    # Replicated keys keep their two-choices routing
                    # even inside a batch — grouping them under the
                    # primary would re-concentrate the hot load the
                    # tier exists to spread.
                    prefetched[key] = self._fetch_from_backend(key)
                    continue
                misses_by_server.setdefault(ring_server_for(key), []).append(key)
        for server_id, missed in misses_by_server.items():
            server = self.cluster.server(server_id)
            for _ in missed:
                self.monitor.record_lookup(server_id)
            if ttl is not None:
                for key in missed:
                    ttl.expire_shard(self, server_id, key)
            try:
                found = self.guard.call(
                    server_id, lambda: server.get_many(missed)
                )
            except ShardUnavailableError:
                for key in missed:
                    prefetched[key] = self._degraded_read(server_id, key)
                continue
            for key in missed:
                value = found.get(key, MISSING)
                if value is MISSING:
                    value = self._resolve_miss(key)
                    self._backfill(server, key, value)
                prefetched[key] = value

        missing = MISSING

        def loader(key: Hashable) -> Any:
            value = prefetched.get(key, missing)
            if value is missing:
                value = self._fetch_from_backend(key)
            return value

        get_or_admit = policy.get_or_admit
        values = {key: get_or_admit(key, loader) for key in keys}
        if ttl is not None:
            # Stamp fill time for the batch keys that actually entered
            # (and stayed in) the local cache — mirrors :meth:`get`.
            for key in values:
                if not was_cached[key] and key in policy:
                    ttl.note_local_fill(self.client_id, key)
        return values

    def set(self, key: Hashable, value: Any) -> None:
        """Write path: dispatched to the attached write-path strategy.

        With none attached (the default) the inline body *is* the
        cache-aside strategy: storage write + local and layer
        invalidation — byte-for-byte the classic protocol.
        """
        wp = self.write_policy
        if wp is not None:
            wp.on_set(self, key, value)
            return
        self.cluster.storage.set(key, value)
        self.policy.record_update(key)
        self._invalidate_shard(key)

    def delete(self, key: Hashable) -> None:
        """Delete path: authoritative delete + invalidations, in every
        mode, after an attached strategy's ``on_delete`` bookkeeping."""
        wp = self.write_policy
        if wp is not None:
            wp.on_delete(self, key)
        self.cluster.storage.delete(key)
        self.policy.invalidate(key)
        self._invalidate_shard(key)

    def _invalidate_shard(self, key: Hashable) -> None:
        """Best-effort shard-side delete; counted when the shard is gone.

        Storage already holds the authoritative value, so a lost
        invalidation only risks shard-side staleness — which cold revival
        (:meth:`CacheCluster.revive_server`) wipes. Keys with
        replicated-tier state go through :meth:`_fan_out` instead.
        """
        router = self.router
        if router is not None:
            targets = router.write_targets(key)
            if targets:
                self._fan_out(key, targets, lambda shard: shard.delete(key))
                return
        server = self.cluster.server_for(key)
        try:
            self.guard.call(server.server_id, lambda: server.delete(key))
        except ShardUnavailableError:
            self.guard.stats.lost_invalidations += 1

    def _set_shards(self, key: Hashable, value: Any) -> tuple[int, str | None]:
        """A write strategy's shard SET: :meth:`_invalidate_shard` with a SET.

        Returns how many shards the SET landed on and the owner (a
        replicated key's first write target) whose queue the value
        belongs to, or ``None`` when this SET failed on it. Kept apart
        so the default mode's shard delete stays one frame.
        """
        router = self.router
        if router is not None:
            targets = router.write_targets(key)
            if targets:
                landed = self._fan_out(
                    key, targets, lambda shard: shard.set(key, value)
                )
                # A SET that missed the owner quarantined it.
                owner = targets[0]
                return landed, None if owner in router.pending_demotions(key) else owner
        server = self.cluster.server_for(key)
        try:
            self.guard.call(server.server_id, lambda: server.set(key, value))
        except ShardUnavailableError:
            self.guard.stats.lost_invalidations += 1
            return 0, None
        return 1, server.server_id

    def _fan_out(
        self, key: Hashable, targets: tuple[str, ...], op: Callable[[Any], Any]
    ) -> int:
        """Run a write's ``op(shard)`` on every shard that may hold a copy.

        ``targets`` is the router's write-target set: the replica set
        plus any shards quarantined by earlier failed writes. ``op`` is a
        delete (:meth:`_invalidate_shard`) or a SET of the new value
        (:meth:`_set_shards`) — a SET that lands invalidates at least as
        strongly as a delete, so the bookkeeping is one. An ``op`` that
        cannot land quarantines its shard (its copy may now be stale) out
        of the read choice set until a later ``op`` lands or it revives
        cold; that is what keeps reads zero-stale under kill/revive during
        replicated writes. Returns how many shards ``op`` landed on.
        """
        router = self.router
        rstats = router.stats
        guard = self.guard
        cluster = self.cluster
        landed = 0
        for server_id in targets:
            try:
                server = cluster.server(server_id)
            except ClusterError:
                # The shard left the cluster entirely; its copy is gone.
                router.clear_pending(key, server_id)
                continue
            rstats.replica_invalidations += 1
            try:
                guard.call(server_id, lambda s=server: op(s))
            except ShardUnavailableError:
                guard.stats.lost_invalidations += 1
                rstats.failed_replica_invalidations += 1
                router.quarantine(key, server_id)
            else:
                router.clear_pending(key, server_id)
                landed += 1
        return landed

    def execute(self, request: Any) -> Any:
        """Dispatch one workload operation.

        Accepts :class:`~repro.workloads.request.Request` (get/set/delete)
        and the YCSB :class:`~repro.workloads.ycsb.ScanRequest` (mapped
        onto :meth:`get_many` over the scan's key range).
        """
        if isinstance(request, ScanRequest):
            return self.get_many(request.keys())
        if request.op is OpType.GET:
            return self.get(request.key)
        if request.op is OpType.SET:
            self.set(request.key, request.value)
            return None
        self.delete(request.key)
        return None

    # -------------------------------------------------------------- metrics

    def local_hit_rate(self) -> float:
        """Lifetime front-end cache hit rate."""
        return self.policy.stats.hit_rate

    def local_imbalance(self) -> float:
        """This front end's lifetime contribution to back-end imbalance."""
        return self.monitor.imbalance()

    def __repr__(self) -> str:
        return (
            f"FrontEndClient(id={self.client_id!r}, "
            f"policy={type(self.policy).__name__}, "
            f"hit_rate={self.local_hit_rate():.3f})"
        )
