"""Dict-backed oracle and invariants for cluster-wide fuzzing.

The elastic cluster's riskiest behaviour lives in the *interleavings*:
kill/revive/add/remove churn racing reads, writes, replica promotion
and epoch accounting. Hand-picked scenarios cover the
interleavings someone thought of; the hypothesis state machine in
``tests/test_cluster_stateful.py`` drives random ones against the
trivially correct model in this module and asserts, after every step,
the invariants the whole system is supposed to keep:

* **freshness** — no stale read ever escapes (:class:`ClusterModel`);
* **per-shard state liveness** — breakers, LoadMonitor windows, fault
  profiles and router replica/quarantine sets reference only shards that
  are currently members (:func:`check_cluster_invariants`);
* **churn-safe epoch accounting** — the loads the elastic controller
  sees are always a subset of live, non-fresh, breaker-closed shards, so
  topology churn cannot fabricate an ``I_c`` spike.

The freshness oracle is the paper's model: the protocol deliberately lets
*other* front ends keep their local copies on a write (Section 1's
consistency-cost argument), so a read is correct iff it returns the
committed value **or**, on a local cache hit, the value this front end
itself last observed for the key — i.e. staleness may only come from the
reader's own untouched local copy, never from the shard layer or storage.

The **write-path axis** (:mod:`repro.cluster.writepolicy`) refines the
budget further:

* *write-through* adds nothing — an acknowledged write is durable and
  shard-fresh, so the cache-aside budget applies verbatim;
* *write-behind* makes the committed value the **pending** (queued)
  value while a dirty entry exists; the pre-flush durable value is
  additionally legal for any reader only while the owning shard (and
  with it the queue) is unreachable. The model also mirrors the queue
  itself — per-shard contents, the ``dirty_limit`` bound-flush, loss on
  cold revival, drain on removal — and the invariant checker diffs it
  against :meth:`WriteBehindPolicy.dirty_snapshot` every step;
* *ttl* replaces the local-copy allowance with a bounded window: a read
  may return any value obsoleted fewer than ``2*ttl`` logical-clock
  ticks ago (shard copies live < ``ttl`` past fill, and a local copy
  refilled from an aging shard copy lives < ``ttl`` more), and nothing
  older, from any layer.

The system under test is what :func:`repro.engine.runners.build_cluster`
assembles, the very objects the experiments run; nothing here builds a
cluster.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.elastic import ElasticCoTClient
from repro.engine.spec import RunContext, WriteSpec

__all__ = [
    "ClusterModel",
    "check_cluster_invariants",
    "synthesized_value",
]


def synthesized_value(key: Hashable) -> Any:
    """The value storage synthesizes for a never-written (or deleted) key.

    The fuzz passes this same function to its spec's
    :class:`~repro.cluster.storage.PersistentStore`, so the oracle and
    the system agree on unwritten keys by construction.
    """
    return ("value-of", key, 0)


_UNSEEN = object()


class ClusterModel:
    """Trivially correct committed-state model with a staleness budget.

    ``_written`` is the dict the whole cluster is pretending to be.
    ``_last_seen`` records, per ``(client_id, key)``, the value that
    front end most recently observed — the only value its local cache
    could legally still hold.

    The write-mode refinements (module docstring) add:

    ``_pending``
        write-behind's acknowledged-but-volatile writes, keyed by key
        with the owning shard alongside — a literal mirror of
        :class:`~repro.cluster.writepolicy.WriteBehindPolicy`'s queues,
        including the bound-flush, loss and drain transitions.
    ``_stale`` / ``clock``
        ttl mode's obsolescence ledger: every overwrite records the
        displaced value with the clock tick that obsoleted it, and a
        read may return it only while ``clock - tick < 2*ttl``.
    ``expected_lost``
        the running total of acknowledged writes that legally died with
        a killed shard's queue — cross-checked against the policy's
        ``lost_writes`` counter after every step.
    """

    def __init__(self, write: WriteSpec | None = None) -> None:
        self.write_mode = "cache-aside" if write is None else write.mode
        # The write-behind queue bound and the ttl window (unused otherwise).
        self.dirty_limit = 0 if write is None else write.dirty_limit
        self.ttl = 0 if write is None else write.ttl
        self.clock = 0
        self.expected_lost = 0
        self._written: dict[Hashable, Any] = {}
        self._last_seen: dict[tuple[str, Hashable], Any] = {}
        self._pending: dict[Hashable, tuple[Any, str]] = {}
        self._stale: dict[Hashable, list[tuple[Any, int]]] = {}

    # ------------------------------------------------------------- queries

    def _durable(self, key: Hashable) -> Any:
        """What storage holds right now (pending writes not yet flushed)."""
        if key in self._written:
            return self._written[key]
        return synthesized_value(key)

    def committed(self, key: Hashable) -> Any:
        """The value an omniscient fresh read of ``key`` must return."""
        pending = self._pending.get(key)
        if pending is not None:
            return pending[0]
        return self._durable(key)

    def pending_by_shard(self) -> dict[str, dict[Hashable, Any]]:
        """The model's write-behind queues, shaped like ``dirty_snapshot``."""
        shards: dict[str, dict[Hashable, Any]] = {}
        for key, (value, server_id) in self._pending.items():
            shards.setdefault(server_id, {})[key] = value
        return shards

    # ------------------------------------------------------------ mutation

    def check_read(
        self, client_id: str, key: Hashable, returned: Any, was_local: bool
    ) -> None:
        """Assert one read's result is explainable; record what was seen.

        ``was_local`` is whether the reader's policy held the key before
        the read (a side-effect-free ``in`` probe). A read that did not
        hit the local cache went through shard/storage, where *no* mode
        tolerates staleness — cold revival, the scale-in purge and the
        replication quarantine exist precisely to keep that layer clean.
        (Write-behind's shard-down window and ttl's expiry window are
        the two budgeted exceptions, handled before the strict checks.)
        """
        committed = self.committed(key)
        if returned == committed:
            self._last_seen[(client_id, key)] = returned
            return
        if (
            self.write_mode == "write-behind"
            and key in self._pending
            and returned == self._durable(key)
        ):
            # The owning shard — and with it the queue — is unreachable,
            # so the degraded read legally served the pre-flush durable
            # value while an acknowledged write is still queued.
            self._last_seen[(client_id, key)] = returned
            return
        if self.write_mode == "ttl":
            for value, tick in self._stale.get(key, ()):
                if returned == value and self.clock - tick < 2 * self.ttl:
                    self._last_seen[(client_id, key)] = returned
                    return
            raise AssertionError(
                f"read outside the ttl staleness window: {client_id} read "
                f"{returned!r} for {key!r} at clock {self.clock}; committed "
                f"is {committed!r} and the value is not within "
                f"{2 * self.ttl} ticks of obsolescence"
            )
        if not was_local:
            raise AssertionError(
                f"stale read escaped the caching layer: {client_id} read "
                f"{returned!r} for {key!r} on a local miss, committed is "
                f"{committed!r}"
            )
        allowed = self._last_seen.get((client_id, key), _UNSEEN)
        if returned != allowed:
            raise AssertionError(
                f"unexplainable stale read: {client_id} read {returned!r} "
                f"for {key!r}; committed is {committed!r} and this front "
                f"end last observed "
                f"{'nothing' if allowed is _UNSEEN else repr(allowed)}"
            )

    def note_write(
        self,
        client_id: str,
        key: Hashable,
        value: Any,
        shard: str | None = None,
        shard_down: bool = False,
    ) -> None:
        """A set committed: ``value`` is now the only fresh answer.

        ``shard`` is the key's owning shard and ``shard_down`` whether
        it was unreachable when the write was issued — write-behind's
        queue placement (and its synchronous-fallback escape hatch)
        depend on both; the other modes ignore them.
        """
        if self.write_mode == "write-behind":
            self._note_buffered_write(key, value, shard, shard_down)
        elif self.write_mode == "ttl":
            self._note_obsoleted(key)
            self._written[key] = value
        else:
            self._written[key] = value
        self._forget_local(client_id, key)

    def _note_buffered_write(
        self, key: Hashable, value: Any, shard: str | None, shard_down: bool
    ) -> None:
        if shard_down:
            # Queue unreachable: the policy acknowledged synchronously
            # against storage and superseded any dirty entry.
            self._pending.pop(key, None)
            self._written[key] = value
            return
        assert shard is not None, "write-behind model needs the owning shard"
        previous = self._pending.get(key)
        if previous is not None and previous[1] != shard:
            del self._pending[key]  # re-homed: the old queue entry is dropped
        on_shard = [k for k, (_, s) in self._pending.items() if s == shard]
        if key not in on_shard and len(on_shard) >= self.dirty_limit:
            for k in on_shard:  # mirror the eager bound-flush
                flushed, _ = self._pending.pop(k)
                self._written[k] = flushed
        self._pending[key] = (value, shard)

    def _note_obsoleted(self, key: Hashable) -> None:
        """ttl bookkeeping: the current value just became history."""
        self.clock += 1
        history = self._stale.setdefault(key, [])
        history.append((self._durable(key), self.clock))
        self._stale[key] = [
            (v, t) for v, t in history if self.clock - t < 2 * self.ttl
        ]

    def note_delete(self, client_id: str, key: Hashable) -> None:
        """A delete committed: reads revert to the synthesized value.

        Deletes are synchronous in every write mode, so the pending
        entry (if any) dies here and the ttl clock still ticks.
        """
        self._pending.pop(key, None)
        if self.write_mode == "ttl":
            self._note_obsoleted(key)
        self._written.pop(key, None)
        self._forget_local(client_id, key)

    # --------------------------------------------- write-behind transitions

    def note_flush(self, down: set[str]) -> None:
        """A cadence flush drained every queue on a reachable shard."""
        for key in [k for k, (_, s) in self._pending.items() if s not in down]:
            value, _ = self._pending.pop(key)
            self._written[key] = value

    def note_cold_revival(self, server_id: str) -> None:
        """The dead incarnation's queue is gone: its writes are lost."""
        for key in [k for k, (_, s) in self._pending.items() if s == server_id]:
            del self._pending[key]
            self.expected_lost += 1

    def note_shard_removed(self, server_id: str) -> None:
        """Graceful scale-in drains the departing shard's queue."""
        for key in [k for k, (_, s) in self._pending.items() if s == server_id]:
            value, _ = self._pending.pop(key)
            self._written[key] = value

    def _forget_local(self, writer_id: str, key: Hashable) -> None:
        """Drop the local-copy allowance a write invalidates: the writer
        always invalidates its own copy (``record_update``)."""
        self._last_seen.pop((writer_id, key), None)


def check_cluster_invariants(context: RunContext, model: ClusterModel) -> None:
    """Assert every cross-component structural invariant at once.

    Called by the state machine after every step; each check names the
    component so a violation reads as a diagnosis, not a riddle.
    """
    live = set(context.cluster.server_ids)

    tracked = context.cluster.faults.tracked_servers()
    assert tracked <= live, (
        f"fault profiles reference departed shards: {sorted(tracked - live)}"
    )

    for client in context.front_ends:
        cid = client.client_id
        breakers = client.guard.tracked_servers()
        assert breakers <= live, (
            f"{cid}: breakers reference departed shards: "
            f"{sorted(breakers - live)}"
        )
        window = set(client.monitor.epoch_loads())
        assert window <= live, (
            f"{cid}: epoch load window references departed shards: "
            f"{sorted(window - live)}"
        )
        fresh = client.monitor.epoch_new_servers()
        assert fresh <= live, (
            f"{cid}: mid-epoch joiner set references departed shards: "
            f"{sorted(fresh - live)}"
        )
        if not isinstance(client, ElasticCoTClient):
            continue  # the churn-safe load view is the elastic controller's
        churn_safe = set(client._churn_safe_epoch_loads())
        assert churn_safe <= live, (
            f"{cid}: controller would see departed shards: "
            f"{sorted(churn_safe - live)}"
        )
        assert not churn_safe & fresh, (
            f"{cid}: controller would see mid-epoch joiners: "
            f"{sorted(churn_safe & fresh)}"
        )
        assert not churn_safe & client.guard.unavailable_servers(), (
            f"{cid}: controller would see breaker-open shards"
        )

    router = context.router
    if router is not None:
        for key, entry in router.routes.items():
            replicas = set(entry.replicas)
            assert replicas <= live, (
                f"replica set of {key!r} references departed shards: "
                f"{sorted(replicas - live)}"
            )
            pending = router.pending_demotions(key)
            assert entry.eligible == tuple(
                sid for sid in entry.replicas if sid not in pending
            ), f"eligible set of {key!r} inconsistent with its pending shards"
        for key, pending in router.pending_snapshot().items():
            assert pending <= live, (
                f"pending demotions of {key!r} reference departed shards: "
                f"{sorted(pending - live)}"
            )

    policy = context.write_policy
    if policy is not None and policy.buffered:
        snapshot = policy.dirty_snapshot()
        assert set(snapshot) <= live, (
            f"dirty buffers reference departed shards: "
            f"{sorted(set(snapshot) - live)}"
        )
        for server_id, buffer in snapshot.items():
            assert len(buffer) <= policy.dirty_limit, (
                f"dirty buffer of {server_id} holds {len(buffer)} entries, "
                f"bound is {policy.dirty_limit}"
            )
        assert policy.stats.peak_dirty <= policy.dirty_limit, (
            f"peak dirty depth {policy.stats.peak_dirty} exceeded the "
            f"bound {policy.dirty_limit}"
        )
        expected = model.pending_by_shard()
        assert snapshot == expected, (
            f"dirty buffers diverged from the model's queues: "
            f"system {snapshot!r} != model {expected!r}"
        )
        assert policy.stats.lost_writes == model.expected_lost, (
            f"loss accounting drifted: policy counted "
            f"{policy.stats.lost_writes} lost writes, the model expected "
            f"{model.expected_lost}"
        )
    if policy is not None and policy.ttl_hooks:
        assert policy.clock == model.clock, (
            f"ttl logical clock drifted: policy at {policy.clock}, "
            f"model at {model.clock}"
        )
