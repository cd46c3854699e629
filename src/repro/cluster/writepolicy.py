"""Write-path coherence strategies for the front-end client.

The classic client-driven protocol (Section 2 of the paper) hard-codes
one write discipline: *cache-aside* — write storage, invalidate the
local copy, delete the shard copy. :class:`~repro.cluster.client.FrontEndClient`
runs it inline, and with no policy attached (``TopologySpec.write =
None``, the default) that is the whole write path. This module holds
the other disciplines a topology can pick declaratively (``WriteSpec``
on ``TopologySpec``):

* :class:`WriteThroughPolicy` — the authoritative storage write plus a
  *SET* (not a delete) on the owning shard, so the caching layer holds
  the fresh value the moment the write is acknowledged. Replicated keys
  fan the SET out to every write target (``FrontEndClient._set_shards``).
* :class:`WriteBehindPolicy` — acknowledged writes land in the shard's
  copy immediately and in a bounded per-shard dirty buffer (the
  stand-in for the shard's write-behind queue); storage sees them when
  the buffer flushes (epoch cadence, or eagerly when the bound is
  hit). Killing a dirty shard freezes its queue; cold revival drops it
  and the dropped writes are accounted as lost — at most
  ``dirty_limit`` per kill, the loss bound ``ext-write`` checks under
  chaos. Graceful scale-in (``remove_server``) drains the departing
  shard's queue instead.
* :class:`TTLWritePolicy` — writes touch *only* storage and advance a
  cluster-wide logical clock; cached copies (shard and local) expire
  lazily ``ttl`` clock ticks after they were filled. No invalidation
  traffic at all; staleness is bounded by the clock instead. Local
  copies hook the per-policy ``eviction_listeners``
  (``repro/policies/base.py``) so stamps die with the copies they cover.

Each step exists once, in the client: a policy's ``on_set`` writes
storage itself but makes its shard SET through the client's one owner
SET (``FrontEndClient._set_shards``), and a delete is always the
client's inline body, after the policy's ``on_delete`` bookkeeping.

One policy instance, built bound to its cluster, is shared by every
front end of a run (like the hot-key router): the dirty buffers and the
logical clock are cluster agreement state, not per-client state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import ConfigurationError, ShardUnavailableError
from repro.policies.base import MISSING

if TYPE_CHECKING:  # import cycle: client imports this module
    from repro.cluster.client import FrontEndClient
    from repro.cluster.cluster import CacheCluster

__all__ = [
    "POLICY_MODES",
    "WRITE_MODES",
    "WriteStats",
    "WritePolicy",
    "WriteThroughPolicy",
    "WriteBehindPolicy",
    "TTLWritePolicy",
    "make_write_policy",
]

#: the modes :func:`make_write_policy` builds, which a ``WriteSpec`` may name
POLICY_MODES = ("write-through", "write-behind", "ttl")
#: every write-path coherence mode; cache-aside is no policy (``write=None``)
WRITE_MODES = ("cache-aside", *POLICY_MODES)


@dataclass(slots=True)
class WriteStats:
    """Counters for one run's write path (one shared instance per run).

    ``storage_writes`` counts every authoritative storage mutation the
    policy performs (sets and deletes, foreground or flush);
    ``flushed_writes`` is the subset performed by write-behind flushes,
    so ``storage_writes - flushed_writes`` is the *foreground* storage
    cost a client waits on — the quantity the perf gate's modeled
    throughput uses.
    """

    storage_writes: int = 0
    #: shard SETs that landed on the write path (write-through fan-out)
    through_writes: int = 0
    #: writes acknowledged into a dirty buffer
    buffered_writes: int = 0
    #: buffered writes that overwrote an already-dirty entry
    coalesced_writes: int = 0
    #: dirty entries made durable by a flush
    flushed_writes: int = 0
    #: flush passes (cadence, bound-triggered, or final drain)
    flushes: int = 0
    #: flushes forced by a buffer hitting ``dirty_limit``
    bound_flushes: int = 0
    #: acknowledged writes dropped with a dead shard's queue
    lost_writes: int = 0
    #: write-behind writes that fell back to synchronous storage writes
    #: because the owning shard (its queue) was unavailable
    sync_fallbacks: int = 0
    #: cached copies expired by the TTL clock (shard or local)
    ttl_expirations: int = 0
    #: deepest any single shard's dirty buffer ever got
    peak_dirty: int = 0


class WritePolicy:
    """Base strategy: how a front-end write reaches storage and shards.

    Subclasses override :meth:`on_set`, which runs *instead of* the
    client's inline cache-aside body, and may extend :meth:`on_delete`,
    which runs *before* the client's one delete body. The client hands
    itself in, so one shared policy instance serves every front end
    while using each caller's own guard, monitor and router state.
    """

    #: mode name (one of ``POLICY_MODES``)
    mode: str
    #: True when the policy keeps a dirty buffer the runner must flush
    buffered = False
    #: True when the policy needs the client's read-path TTL hooks
    ttl_hooks = False

    def __init__(self, cluster: "CacheCluster") -> None:
        self.stats = WriteStats()
        self._cluster = cluster

    # ------------------------------------------------------------ write path

    def on_set(self, client: "FrontEndClient", key: Hashable, value: Any) -> None:
        """Handle one acknowledged write issued through ``client``."""
        raise NotImplementedError

    def on_delete(self, client: "FrontEndClient", key: Hashable) -> None:
        """Account one delete issued through ``client``, before it runs.

        The delete itself is the client's inline body in every mode
        (storage delete + local and shard invalidation): a delete is a
        correctness operation — "this value must stop being served" — so
        no mode is allowed to keep serving it from a buffer or an
        unexpired copy. A policy only keeps its books here.
        """
        self.stats.storage_writes += 1

    # ----------------------------------------------------------- maintenance

    def flush(self) -> int:
        """Drain any dirty buffers to storage; returns entries flushed."""
        return 0

    def dirty_depth(self) -> int:
        """Total dirty entries currently buffered (gauge source)."""
        return 0

    def dirty_snapshot(self) -> dict[str, dict[Hashable, Any]]:
        """Per-shard view of the dirty buffers (oracle cross-check)."""
        return {}

    def buffered_value(self, key: Hashable, default: Any = MISSING) -> Any:
        """The pending (unflushed) value of ``key``, if any.

        The read path consults this on a shard-layer miss *before*
        falling back to storage: a dirty entry whose shard copy was
        evicted must be served (and backfilled) from the queue, not
        from the stale durable value.
        """
        return default

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mode={self.mode!r})"


class WriteThroughPolicy(WritePolicy):
    """Storage write plus a shard SET: the layer stays fresh.

    The acknowledged write is durable (storage) *and* present in the
    caching layer, so no later read can observe the pre-write value
    from the owning shard — the "acknowledged write-through writes are
    never served stale" invariant the stateful fuzzer pins. A shard
    that cannot take the SET only misses the refresh (counted with the
    lost invalidations); its stale copy is unreachable while it is down
    and wiped by cold revival, the same argument cache-aside relies on.

    The SET is the client's one owner SET (``_set_shards``): replicated
    keys fan it out to every write target, with the delete fan-out's
    quarantine bookkeeping.
    """

    mode = "write-through"

    def on_set(self, client: "FrontEndClient", key: Hashable, value: Any) -> None:
        self.stats.storage_writes += 1
        client.cluster.storage.set(key, value)
        client.policy.record_update(key)
        self.stats.through_writes += client._set_shards(key, value)[0]


class WriteBehindPolicy(WritePolicy):
    """Acknowledge into the shard + its write queue; storage lags.

    The per-shard dirty buffer stands in for the shard's write-behind
    queue. An acknowledged write SETs the shard copy (readers see it
    immediately, the same owner SET as write-through) and enqueues the
    durable write; storage catches up when the buffer flushes — on the
    runner's ``flush_every`` cadence, at the final drain, or eagerly
    when a buffer would exceed ``dirty_limit`` (so no queue ever holds
    more than ``dirty_limit`` acknowledged-but-volatile writes).

    Failure semantics compose with the fault layer:

    * owning shard (a replicated key's first write target) unavailable
      → the queue is unreachable; the write falls back to a
      *synchronous* storage write (``sync_fallbacks``), superseding any
      dirty entry it had; the missed SET counts with the lost
      invalidations, as in write-through.
    * shard killed while dirty → its queue freezes with it; flushes
      skip down shards. Cold revival drops the queue and counts the
      entries as ``lost_writes`` — at most ``dirty_limit`` per kill.
    * graceful scale-in (``remove_server``) drains the departing
      shard's queue to storage before the id is forgotten.
    """

    mode = "write-behind"
    buffered = True

    def __init__(self, cluster: "CacheCluster", dirty_limit: int = 64) -> None:
        if dirty_limit < 1:
            raise ConfigurationError("dirty_limit must be >= 1")
        super().__init__(cluster)
        self.dirty_limit = dirty_limit
        #: per-shard queue: shard id -> {key: pending value}
        self._buffers: dict[str, dict[Hashable, Any]] = {}
        #: which shard's queue currently holds each dirty key (ring churn
        #: can re-home a key between writes; the superseded entry must be
        #: dropped or an old value could out-flush a newer one)
        self._owner: dict[Hashable, str] = {}
        cluster.cold_revival_listeners.append(self._on_cold_revival)
        cluster.removal_listeners.append(self._on_server_removed)

    # ------------------------------------------------------------ write path

    def on_set(self, client: "FrontEndClient", key: Hashable, value: Any) -> None:
        client.policy.record_update(key)
        # Replicas receive the *value* too (a delete would let a
        # two-choices read miss and backfill the stale durable value
        # from storage before the queue flushes).
        landed, queue = client._set_shards(key, value)
        self.stats.through_writes += landed
        if queue is not None:
            self._enqueue(queue, key, value)
            return
        # The shard and its queue are unreachable: acknowledge the
        # write synchronously against storage instead of queueing
        # into a buffer nobody could flush or read through.
        self.stats.sync_fallbacks += 1
        self.stats.storage_writes += 1
        client.cluster.storage.set(key, value)
        self._discard(key)

    def on_delete(self, client: "FrontEndClient", key: Hashable) -> None:
        self._discard(key)  # a later flush must not resurrect the value
        super().on_delete(client, key)

    # --------------------------------------------------------------- buffers

    def _enqueue(self, server_id: str, key: Hashable, value: Any) -> None:
        previous = self._owner.get(key)
        if previous is not None and previous != server_id:
            self._buffers[previous].pop(key, None)
        buffer = self._buffers.setdefault(server_id, {})
        if key not in buffer and len(buffer) >= self.dirty_limit:
            self.stats.bound_flushes += 1
            self._flush_shard(server_id)
            buffer = self._buffers.setdefault(server_id, {})
        if key in buffer:
            self.stats.coalesced_writes += 1
        self.stats.buffered_writes += 1
        buffer[key] = value
        self._owner[key] = server_id
        depth = len(buffer)
        if depth > self.stats.peak_dirty:
            self.stats.peak_dirty = depth

    def _discard(self, key: Hashable) -> None:
        server_id = self._owner.pop(key, None)
        if server_id is not None:
            self._buffers[server_id].pop(key, None)

    def _flush_shard(self, server_id: str) -> int:
        buffer = self._buffers.pop(server_id, None)
        if not buffer:
            return 0
        storage = self._cluster.storage
        for key, value in buffer.items():
            storage.set(key, value)
            self._owner.pop(key, None)
        count = len(buffer)
        self.stats.flushed_writes += count
        self.stats.storage_writes += count
        self.stats.flushes += 1
        return count

    def flush(self) -> int:
        """Drain every reachable queue (cadence hook / final drain).

        A down shard's queue is frozen with it — flushing it would make
        writes durable that the loss accounting says died with the
        shard — so down shards are skipped until they revive (cold
        revival empties the queue as lost) or are removed (drained).
        """
        faults = self._cluster.faults
        flushed = 0
        for server_id in list(self._buffers):
            if faults is not None and faults.is_down(server_id):
                continue
            flushed += self._flush_shard(server_id)
        return flushed

    def dirty_depth(self) -> int:
        return sum(len(buffer) for buffer in self._buffers.values())

    def dirty_snapshot(self) -> dict[str, dict[Hashable, Any]]:
        return {sid: dict(buf) for sid, buf in self._buffers.items() if buf}

    def buffered_value(self, key: Hashable, default: Any = MISSING) -> Any:
        server_id = self._owner.get(key)
        if server_id is None:
            return default
        return self._buffers[server_id].get(key, default)

    # ------------------------------------------------------------- topology

    def _on_cold_revival(self, server_id: str) -> None:
        """The dead incarnation's queue died with it: count the loss."""
        buffer = self._buffers.pop(server_id, None)
        if not buffer:
            return
        for key in buffer:
            self._owner.pop(key, None)
        self.stats.lost_writes += len(buffer)

    def _on_server_removed(self, server_id: str) -> None:
        """Graceful decommission: drain the departing shard's queue."""
        self._flush_shard(server_id)


class TTLWritePolicy(WritePolicy):
    """Expiry on a logical clock instead of invalidation traffic.

    Writes mutate storage only and advance a cluster-wide logical clock
    (one tick per write operation). Every cached copy is stamped with
    the clock value at fill time — shard copies when the client
    backfills them, local copies when a miss loader returns — and is
    expired lazily, on the next read that touches it, once
    ``clock - stamp >= ttl``. Staleness is therefore bounded: a value
    obsoleted by a write can be served for fewer than ``2*ttl`` ticks
    (shard copies live < ``ttl`` after fill, and a local copy refilled
    from an aging shard copy lives < ``ttl`` more — the chain is at
    most two levels deep because locals never feed other caches).

    Local-copy hygiene rides the ``eviction_listeners`` hook on the
    front-end policies (``repro/policies/base.py``): when a policy
    evicts a copy on its own, the listener drops the copy's stamp so
    the stamp table tracks live copies, not read history.
    """

    mode = "ttl"
    ttl_hooks = True

    def __init__(self, cluster: "CacheCluster", ttl: int = 1024) -> None:
        if ttl < 1:
            raise ConfigurationError("ttl must be >= 1")
        super().__init__(cluster)
        self.ttl = ttl
        #: logical clock: one tick per acknowledged write operation
        self.clock = 0
        #: shard id -> {key: fill-time clock}
        self._shard_stamps: dict[str, dict[Hashable, int]] = {}
        #: client id -> {key: fill-time clock}
        self._local_stamps: dict[str, dict[Hashable, int]] = {}
        cluster.cold_revival_listeners.append(self._drop_shard_stamps)
        cluster.removal_listeners.append(self._drop_shard_stamps)

    # ------------------------------------------------------------ write path

    def on_set(self, client: "FrontEndClient", key: Hashable, value: Any) -> None:
        self.clock += 1
        self.stats.storage_writes += 1
        client.cluster.storage.set(key, value)
        client.policy.record_update(key)
        self._local_stamps.get(client.client_id, {}).pop(key, None)

    def on_delete(self, client: "FrontEndClient", key: Hashable) -> None:
        self.clock += 1
        self._local_stamps.get(client.client_id, {}).pop(key, None)
        super().on_delete(client, key)

    # ------------------------------------------------------------ read hooks

    def note_backfill(self, server_id: str, key: Hashable) -> None:
        """Stamp a shard copy the client just backfilled from storage."""
        self._shard_stamps.setdefault(server_id, {})[key] = self.clock

    def note_local_fill(self, client_id: str, key: Hashable) -> None:
        """Stamp the copy a miss loader is returning to the local layer."""
        self._local_stamps.setdefault(client_id, {})[key] = self.clock

    def expire_shard(
        self, client: "FrontEndClient", server_id: str, key: Hashable
    ) -> None:
        """Expire the shard copy of ``key`` if its stamp aged out.

        Called on the read path after routing, before the shard lookup,
        so an expired copy is deleted and the read refetches (and
        restamps) the fresh value from storage.
        """
        stamps = self._shard_stamps.get(server_id)
        if not stamps:
            return
        stamp = stamps.get(key)
        if stamp is None or self.clock - stamp < self.ttl:
            return
        del stamps[key]
        self.stats.ttl_expirations += 1
        server = client.cluster.server(server_id)
        try:
            client.guard.call(server_id, lambda: server.delete(key))
        except ShardUnavailableError:
            pass  # unreachable copy; cold revival wipes it anyway

    def expire_local(self, client: "FrontEndClient", key: Hashable) -> None:
        """Expire the caller's local copy of ``key`` if it aged out."""
        stamps = self._local_stamps.get(client.client_id)
        if not stamps:
            return
        stamp = stamps.get(key)
        if stamp is None or self.clock - stamp < self.ttl:
            return
        del stamps[key]
        self.stats.ttl_expirations += 1
        client.policy.invalidate(key)

    def attach_local_hygiene(self, client: "FrontEndClient") -> None:
        """Register the eviction listener that keeps local stamps honest."""
        stamps = self._local_stamps.setdefault(client.client_id, {})

        def _dropped(key: Hashable) -> None:
            stamps.pop(key, None)

        client.policy.eviction_listeners.append(_dropped)

    def _drop_shard_stamps(self, server_id: str) -> None:
        """A shard's copies are gone (cold revival / removal): forget them."""
        self._shard_stamps.pop(server_id, None)


def make_write_policy(
    mode: str,
    cluster: "CacheCluster",
    *,
    dirty_limit: int = 64,
    ttl: int = 1024,
) -> WritePolicy:
    """Build the strategy named by ``mode`` (see ``POLICY_MODES``), bound
    to the ``cluster`` whose topology events it follows."""
    if mode == "write-through":
        return WriteThroughPolicy(cluster)
    if mode == "write-behind":
        return WriteBehindPolicy(cluster, dirty_limit=dirty_limit)
    if mode == "ttl":
        return TTLWritePolicy(cluster, ttl=ttl)
    raise ConfigurationError(
        f"unknown write mode {mode!r}; expected one of {', '.join(POLICY_MODES)}"
    )
