"""The replicated hot-key tier (DistCache direction, ROADMAP item 1).

Consistent hashing gives every key exactly one owner, so one hot shard
caps cluster throughput no matter how well the front-end caches absorb
the head of the distribution — a single key hotter than one shard's
capacity saturates it. DistCache (arXiv:1901.08200) shows that
replicating *only the agreed-upon heavy hitters* across a second layer
and routing reads with power-of-two-choices restores provable load
balance; Pourmiri et al. (arXiv:1706.10209) pin the win on the
two-choices step. This module is that tier for the repro's cluster data
plane:

* a :class:`HotKeyRouter` holds the *agreed* replicated key set — the
  heavy hitters the CoT trackers already maintain, aggregated across
  front ends each promotion epoch (:meth:`HotKeyRouter.refresh`);
* promoted keys map to ``R`` distinct shards via
  :meth:`~repro.cluster.hashring.ConsistentHashRing.lookup_replicas`
  (primary first, so disabling replication degenerates to the classic
  single-owner protocol);
* front ends (:class:`~repro.cluster.client.FrontEndClient`) route
  replicated reads with power-of-two-choices (``CHOICES``) over the
  per-shard load window their own
  :class:`~repro.cluster.loadmonitor.LoadMonitor` already measures, and fan writes out to every shard that may hold a
  copy, preserving the zero-stale-read guarantee.

Coherence argument (why no stale read escapes):

1. persistent storage stays authoritative — every layer miss backfills
   from it, so a missing copy is always safe;
2. a write deletes the key on *every* shard of its write-target set:
   the current replica set plus any shard with an unresolved (pending)
   demotion-invalidation for that key — and, for a demoted key with
   pending shards, the ring primary, since its reads have returned to
   the classic single-owner path;
3. demotion invalidates the non-primary copies immediately; a shard
   that cannot be reached keeps the key *quarantined* — it is excluded
   from the read choice set and re-enters write fan-out — until the
   delete succeeds or the shard revives cold (which wipes it, clearing
   the quarantine via the cluster's cold-revival listeners);
4. a dead replica drops out of the choice set through the front end's
   existing per-shard circuit breakers (OPEN shards are never chosen;
   HALF_OPEN shards stay eligible so breakers are re-probed and a
   revived replica folds back in).

Under the cold-revival failure model this is exactly the guarantee the
unreplicated path already gives (a lost invalidation only risks
staleness that cold revival wipes); the chaos and stateful-fuzz tests
pin it under random promote/demote/write/kill interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.cluster.retry import ClusterGuard
from repro.errors import ClusterError, ConfigurationError, ShardUnavailableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import CacheCluster

__all__ = [
    "CHOICES",
    "HotKeyRouter",
    "ReplicaEntry",
    "ReplicationConfig",
    "ReplicationStats",
    "tracker_report",
]

#: ``d`` of power-of-``d``-choices routing: two is the classic and the
#: theory's sweet spot (arXiv:1706.10209), and what every run uses.
CHOICES = 2


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the hot-key tier.

    Parameters
    ----------
    degree:
        ``R`` — shards per replicated key (primary included). 1 turns the
        tier into a pass-through (the replica set is just the primary).
    top_n:
        heavy-hitter candidates each front end reports per refresh.
    max_keys:
        cap on the replicated key set (replication has a per-key write
        and memory cost; only the head of the distribution earns it).
    min_share:
        a key is promoted when its aggregated tracker weight reaches
        this fraction of the total reported weight. The default (0.05)
        approximates "hot enough to matter against a shard's 1/N fair
        share" for the 8-shard testbed. An already-replicated key is
        demoted only when its share falls below the hysteresis floor
        ``min_share / 2``, so keys hovering at the threshold do not flap
        promote/demote every epoch.
    refresh_every:
        total accesses (across front ends) between promotion epochs — a
        deterministic cadence, so two runs of one spec agree on every
        epoch boundary.
    """

    degree: int = 3
    top_n: int = 64
    max_keys: int = 64
    min_share: float = 0.05
    refresh_every: int = 2_048

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError("replication degree must be >= 1")
        if self.top_n < 1:
            raise ConfigurationError("top_n must be >= 1")
        if self.max_keys < 1:
            raise ConfigurationError("max_keys must be >= 1")
        if not 0.0 < self.min_share <= 1.0:
            raise ConfigurationError("min_share must be in (0, 1]")
        if self.refresh_every < 1:
            raise ConfigurationError("refresh_every must be >= 1")


@dataclass
class ReplicationStats:
    """Lifetime counters over everything the tier did."""

    #: promotion epochs completed (refresh calls)
    refreshes: int = 0
    promotions: int = 0
    demotions: int = 0
    #: reads served through the replicated path
    replicated_reads: int = 0
    #: replicated reads that compared two alive replicas
    two_choice_reads: int = 0
    #: replicated reads with no eligible replica (degraded via primary)
    primary_fallbacks: int = 0
    #: shard-side deletes fanned out on replicated writes
    replica_invalidations: int = 0
    #: fanned deletes that could not reach their shard (a demotion's
    #: included: that shard stays quarantined until the delete lands)
    failed_replica_invalidations: int = 0


@dataclass
class ReplicaEntry:
    """One replicated key's placement and read choice set.

    ``eligible`` is the replica set minus the shards the router records
    as possibly holding a stale copy (a failed invalidation); those must
    not serve reads until their delete lands or they revive cold. Only
    :meth:`HotKeyRouter._set_pending` writes it.
    """

    replicas: tuple[str, ...]
    eligible: tuple[str, ...]

    @property
    def quarantine(self) -> frozenset[str]:
        """The replicas kept out of the read choice set."""
        return frozenset(self.replicas).difference(self.eligible)


def tracker_report(policy: object, n: int) -> list[tuple[Hashable, float]]:
    """One front end's heavy-hitter report: ``[(key, weight), ...]``.

    Reuses the space-saving tracker output every CoT policy already
    maintains (``policy.tracker.top(n)``); an adaptive arbiter reports its
    live policy's tracker. Policies without a tracker (plain LRU/LFU/ARC
    front ends) report nothing — the tier then simply never promotes,
    which is the correct degenerate behaviour.
    """
    policy = getattr(policy, "live_policy", policy)
    tracker = getattr(policy, "tracker", None)
    top = getattr(tracker, "top", None)
    if top is None:
        return []
    return list(top(n))


class HotKeyRouter:
    """Shared agreement state of the replicated hot-key tier.

    One router is shared by every front end of a run: it owns the
    *agreed* replicated key set, the promotion/demotion epochs, and the
    pending-demotion quarantine bookkeeping. Front ends keep their own
    routing state (load monitor, breakers, choice RNG) — the data plane
    stays decentralized, only the agreement on *which* keys are hot is
    shared, exactly DistCache's split.

    Parameters
    ----------
    cluster:
        the shared back-end cluster.
    config:
        tier tuning; default :class:`ReplicationConfig`.
    """

    def __init__(
        self, cluster: "CacheCluster", config: ReplicationConfig | None = None
    ) -> None:
        self.cluster = cluster
        self.config = config or ReplicationConfig()
        #: control-plane retry/breaker layer for the router's own
        #: invalidation traffic (demotions, quarantine retries)
        self.guard = ClusterGuard(cluster.server_ids)
        self.stats = ReplicationStats()
        #: promotion-epoch counter (bumped by every refresh and by the
        #: promote/demote primitives, so epoch transitions are observable)
        self.epoch = 0
        #: the hot-path lookup surface: ``key -> ReplicaEntry``. Front
        #: ends bind this dict once and probe it per read; it only ever
        #: mutates through promote/demote on this router.
        self.routes: dict[Hashable, ReplicaEntry] = {}
        #: ``key -> {shard}`` with an unresolved invalidation: the shard
        #: may still hold a stale copy, so it stays in write fan-out and
        #: out of read choice sets until cleared. The one record of that
        #: fact; :meth:`_set_pending` is its only writer.
        self._pending: dict[Hashable, set[str]] = {}
        self._ring_epoch = cluster.ring.epoch
        cluster.cold_revival_listeners.append(self._on_cold_revival)
        # Re-place replica sets the moment a shard is scaled in. Waiting
        # for the lazy ring-epoch check at the next refresh left a window
        # in which ``routes`` still named the departed shard: a read
        # sampling it crashed on the cluster lookup, and its quarantine /
        # pending entries referenced a shard that no longer existed.
        cluster.removal_listeners.append(self._on_server_removed)

    def _on_server_removed(self, _server_id: str) -> None:
        """A shard left the cluster: re-place every affected replica set."""
        self._revalidate_ring()

    # ----------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self.routes)

    def is_replicated(self, key: Hashable) -> bool:
        """Whether ``key`` is currently promoted."""
        return key in self.routes

    def replicas(self, key: Hashable) -> tuple[str, ...]:
        """Current replica set of ``key`` (empty when unreplicated)."""
        entry = self.routes.get(key)
        return entry.replicas if entry is not None else ()

    def pending_demotions(self, key: Hashable) -> frozenset[str]:
        """Shards still quarantined for ``key`` (test/analysis hook)."""
        return frozenset(self._pending.get(key, ()))

    def pending_snapshot(self) -> dict[Hashable, frozenset[str]]:
        """All unresolved demotion-invalidations (invariant-check hook)."""
        return {key: frozenset(shards) for key, shards in self._pending.items()}

    def write_targets(self, key: Hashable) -> tuple[str, ...]:
        """Every shard a write to ``key`` must invalidate, or ``()``.

        ``()`` means the key has no tier state at all — the caller uses
        the classic single-owner invalidation. Otherwise the set is the
        full replica set (quarantined members included: their stale copy
        is exactly what the write must kill) plus any pending shards of
        a demoted incarnation. A demoted key with pending shards has no
        replica set anymore — its reads go through the classic path to
        the ring primary, so the primary is in the target set too
        (otherwise a write would fan out only to the pending shards and
        leave a stale copy serving on the primary).
        """
        entry = self.routes.get(key)
        pending = self._pending.get(key)
        if entry is None and pending is None:
            return ()
        if entry is not None:
            targets: list[str] = list(entry.replicas)
        else:
            targets = [self.cluster.ring.server_for(key)]
        if pending:
            targets.extend(sid for sid in sorted(pending) if sid not in targets)
        return tuple(targets)

    # ------------------------------------------------------------ mutation

    def promote(self, key: Hashable) -> tuple[str, ...]:
        """Promote ``key`` into the replicated tier; returns its replica set.

        Idempotent. Any quarantined shards from a previous incarnation
        are retried first; shards whose delete still cannot land remain
        quarantined (in write fan-out, out of the read choice set) so a
        stale copy can never serve.
        """
        entry = self.routes.get(key)
        if entry is not None:
            return entry.replicas
        self.epoch += 1
        replicas = self.cluster.replicas_for(key, self.config.degree)
        self.routes[key] = ReplicaEntry(replicas, replicas)
        self._retry_pending(key)
        self.stats.promotions += 1
        return replicas

    def demote(self, key: Hashable) -> None:
        """Demote ``key``: reads return to the primary, copies die.

        Non-primary copies are invalidated immediately; a shard that
        cannot be reached is quarantined (see :meth:`write_targets`).
        Idempotent — demoting an unreplicated key is a no-op.
        """
        entry = self.routes.pop(key, None)
        if entry is None:
            return
        self.epoch += 1
        self.stats.demotions += 1
        primary = self.cluster.ring.server_for(key)
        pending = set(self._pending.get(key, ()))
        for sid in entry.replicas:
            if sid == primary:
                continue
            if self._invalidate_on(sid, key):
                pending.discard(sid)
            else:
                pending.add(sid)
        self._set_pending(key, pending)

    def quarantine(self, key: Hashable, server_id: str) -> None:
        """Record that ``server_id`` may hold a stale copy of ``key``.

        Called by front ends when a replicated write's invalidation could
        not reach one shard. The shard leaves the read choice set and
        stays in write fan-out until a later delete lands (any writer's,
        or the router's refresh-time retry) or it revives cold.
        """
        pending = self._pending.get(key, set())
        if server_id not in pending:
            self._set_pending(key, pending | {server_id})

    def clear_pending(self, key: Hashable, server_id: str) -> None:
        """A delete of ``key`` landed on ``server_id``: lift its quarantine."""
        pending = self._pending.get(key)
        if pending is not None and server_id in pending:
            self._set_pending(key, pending - {server_id})

    def refresh(
        self, front_ends: Sequence[object]
    ) -> tuple[tuple[Hashable, ...], tuple[Hashable, ...]]:
        """One promotion epoch: agree on the heavy hitters, converge.

        Aggregates every front end's tracker report, promotes keys whose
        aggregate weight share reaches ``min_share`` (capped at
        ``max_keys``, hottest first), demotes replicated keys that fell
        below the ``min_share / 2`` hysteresis floor, and retries pending
        demotion-invalidations. Returns ``(promoted, demoted)`` keys.
        """
        self.stats.refreshes += 1
        self.epoch += 1
        self._revalidate_ring()
        config = self.config
        weights: dict[Hashable, float] = {}
        for client in front_ends:
            policy = getattr(client, "policy", client)
            for key, weight in tracker_report(policy, config.top_n):
                if weight > 0.0:
                    weights[key] = weights.get(key, 0.0) + weight
        total = sum(weights.values())
        promoted: list[Hashable] = []
        demoted: list[Hashable] = []
        if total > 0.0:
            ranked = sorted(weights.items(), key=lambda kv: (-kv[1], str(kv[0])))
            floor = config.min_share / 2.0 * total
            threshold = config.min_share * total
            keep: set[Hashable] = set()
            # Hysteresis first: an incumbent above the floor keeps its
            # slot wherever it ranks, ahead of new promotions. Checking
            # the floor only inside ranked[:max_keys] would demote a
            # still-hot incumbent the moment it slips past the rank
            # cutoff, so keys hovering at the max_keys rank boundary
            # would flap promote/demote every epoch — exactly what the
            # floor exists to prevent. The cap still binds: with more
            # warm incumbents than slots, the coolest are demoted.
            for key, weight in ranked:
                if len(keep) >= config.max_keys:
                    break
                if key in self.routes and weight >= floor:
                    keep.add(key)
            for key, weight in ranked:
                if len(keep) >= config.max_keys:
                    break
                if key not in self.routes and weight >= threshold:
                    keep.add(key)
        else:
            keep = set()
        for key in sorted(self.routes, key=str):
            if key not in keep:
                demoted.append(key)
        for key in demoted:
            self.demote(key)
        for key in sorted(keep, key=str):
            if key not in self.routes:
                self.promote(key)
                promoted.append(key)
        self._retry_all_pending()
        return tuple(promoted), tuple(demoted)

    # ------------------------------------------------------------- plumbing

    def _set_pending(self, key: Hashable, shards: set[str]) -> None:
        """Record ``key``'s possibly-stale shards and derive its read set.

        The only writer of both: an empty ``shards`` drops the record, and
        a promoted key's ``eligible`` becomes its replicas minus
        ``shards``, in replica order.
        """
        if shards:
            self._pending[key] = shards
        else:
            self._pending.pop(key, None)
        entry = self.routes.get(key)
        if entry is not None:
            entry.eligible = tuple(sid for sid in entry.replicas if sid not in shards)

    def _invalidate_on(self, server_id: str, key: Hashable) -> bool:
        """Guarded best-effort delete of ``key`` on one shard."""
        try:
            server = self.cluster.server(server_id)
        except ClusterError:
            # The shard left the cluster for good; its contents are gone.
            return True
        self.stats.replica_invalidations += 1
        try:
            self.guard.call(server_id, lambda: server.delete(key))
        except ShardUnavailableError:
            self.stats.failed_replica_invalidations += 1
            return False
        return True

    def _retry_pending(self, key: Hashable) -> None:
        """Retry ``key``'s quarantined deletes; the stuck shards stay."""
        pending = self._pending.get(key)
        if pending:
            members = set(self.cluster.server_ids)
            self._set_pending(key, {
                sid
                for sid in sorted(pending)
                if sid in members and not self._invalidate_on(sid, key)
            })

    def _retry_all_pending(self) -> None:
        """Retry every quarantined delete (refresh-time housekeeping)."""
        for key in list(self._pending):
            self._retry_pending(key)

    def _revalidate_ring(self) -> None:
        """Re-place replica sets after ring membership changed.

        A shard leaving the replica set of a still-promoted key may keep
        a copy; it is invalidated (or quarantined) exactly like a
        demotion so the placement change cannot strand a stale copy.
        """
        ring_epoch = self.cluster.ring.epoch
        if ring_epoch == self._ring_epoch:
            return
        self._ring_epoch = ring_epoch
        members = set(self.cluster.server_ids)
        for key, entry in list(self.routes.items()):
            replicas = self.cluster.replicas_for(key, self.config.degree)
            if replicas == entry.replicas:
                continue
            dropped = [sid for sid in entry.replicas if sid not in replicas]
            pending = set(self._pending.get(key, ()))
            for sid in dropped:
                if sid in members and not self._invalidate_on(sid, key):
                    pending.add(sid)
                else:
                    pending.discard(sid)
            entry.replicas = replicas
            self._set_pending(key, pending)
        # Pending entries for shards that left the cluster are moot.
        for key, pending in list(self._pending.items()):
            self._set_pending(key, pending & members)

    def _on_cold_revival(self, server_id: str) -> None:
        """A shard revived cold: its copies are gone, quarantines lift.

        The control-plane breaker is reset too — its failure streak
        belongs to the dead incarnation, and keeping it open would defer
        retryable demotion-invalidations against a live shard for a full
        cooldown (safe, thanks to the quarantine, but needlessly slow).
        """
        self.guard.forget(server_id)
        for key, pending in list(self._pending.items()):
            if server_id in pending:
                self._set_pending(key, pending - {server_id})

    def __repr__(self) -> str:
        return (
            f"HotKeyRouter(keys={len(self.routes)}, epoch={self.epoch}, "
            f"degree={self.config.degree})"
        )
