"""Model-based fuzzing of the whole elastic cluster (ROADMAP item 5).

One hypothesis :class:`RuleBasedStateMachine` drives random interleavings
of the full operation surface — ``get`` / ``set`` / ``delete`` /
``get_many`` / ``kill_server`` / ``revive_server`` / ``add_server`` /
``remove_server`` / epoch closes / router refreshes / write-behind
flushes — against the dict-backed oracle in ``tests/_cluster_oracle.py``,
across the topology grid in ``TOPOLOGIES`` (front-end count ×
replication × write mode × breaker aggressiveness). After every
step the machine asserts:

* no stale read escapes (write-mode-aware: cache-aside reads may only
  serve a front end's own untouched local copy; acknowledged
  write-through writes are never
  served stale from the caching layer; write-behind reads see the queued
  value — the pre-flush durable value only while the owning shard is
  down; ttl reads stay inside the ``2*ttl``-tick obsolescence window);
* write-behind's dirty buffers never exceed ``dirty_limit`` (per shard
  and at their historic peak), mirror the model's queues entry-for-entry
  across kill/revive/add/remove interleavings, and ``lost_writes``
  equals exactly the queue entries dropped by cold revivals;
* per-shard state (fault profiles, breakers, load windows, router
  replica/quarantine/pending sets) references only live shard ids;
* the elastic controller's churn-safe load view never includes departed,
  breaker-open or mid-epoch-fresh shards;
* the fault injector's down set matches the machine's own model of which
  shards were killed — shard-id reuse after scale-in shows up here as a
  freshly added shard inheriting a dead incarnation's profile;
* ``add_server`` always mints a never-before-seen id and the new shard
  starts empty.

Every counterexample this machine has shaken out is preserved as a named
deterministic regression test (see ``test_cluster.py``, ``test_faults.py``,
``test_replication.py``) so the fixes cannot regress even at
``max_examples=0``.

Budget knobs (all via environment, used by ``scripts/verify.sh``):

* ``CLUSTER_FUZZ_EXAMPLES`` — hypothesis ``max_examples`` (default 25);
* ``CLUSTER_FUZZ_STEPS`` — ``stateful_step_count`` (default 30);
* ``CLUSTER_FUZZ_DERANDOMIZE=1`` — deterministic CI profile.

To replay a specific run: ``python -m pytest tests/test_cluster_stateful.py
--hypothesis-seed=<N>`` (any failure is shrunk and printed as a minimal
rule sequence to copy into a named regression test).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from tests._cluster_oracle import (
    ClusterHarness,
    TopologyCase,
    check_cluster_invariants,
)

#: The topology grid. Axes: front ends × replication × guard.
TOPOLOGIES = (
    TopologyCase("paper-1fe"),
    TopologyCase("paper-3fe", num_front_ends=3),
    TopologyCase("paper-2fe-replicated", num_front_ends=2, replicated=True),
    TopologyCase("paper-2fe-tight", num_front_ends=2, tight_guard=True),
    TopologyCase("paper-3fe-replicated", num_front_ends=3, replicated=True),
    TopologyCase(
        "paper-2fe-replicated-tight",
        num_front_ends=2,
        replicated=True,
        tight_guard=True,
    ),
    # Write-path axis (replicated fan-out per mode is pinned by unit
    # tests; here the modes face topology churn instead).
    TopologyCase("writethrough-2fe", num_front_ends=2, write_mode="write-through"),
    TopologyCase("writebehind-1fe", write_mode="write-behind", dirty_limit=3),
    TopologyCase(
        "writebehind-2fe-tight",
        num_front_ends=2,
        write_mode="write-behind",
        dirty_limit=2,
        tight_guard=True,
    ),
    TopologyCase("ttl-2fe", num_front_ends=2, write_mode="ttl", ttl=6),
    # Network axis: shards served over localhost sockets (smoke scale,
    # 1 front end) so kill/revive also exercises real TCP teardown and
    # the client pool's lazy reconnect.
    TopologyCase("network-1fe", network=True),
)

#: Small key universe so random operations collide on keys constantly —
#: collisions are where invalidation, replication and re-homing bugs live.
KEYS = tuple(f"k{i}" for i in range(12))

#: Topology churn bounds: never below 2 shards (the ring stays
#: meaningful), never above 6 (placements keep overlapping).
MIN_SERVERS = 2
MAX_SERVERS = 6

keys_st = st.sampled_from(KEYS)


class ElasticClusterMachine(RuleBasedStateMachine):
    """Random walks over the full cluster surface, checked per step."""

    harness: ClusterHarness | None = None

    @initialize(
        case=st.sampled_from(TOPOLOGIES), seed=st.integers(min_value=0, max_value=127)
    )
    def build(self, case: TopologyCase, seed: int) -> None:
        self.harness = ClusterHarness(case, seed=seed)
        self.model = self.harness.model
        #: shards the machine itself killed and has not revived/removed —
        #: the oracle for the fault injector's down set.
        self.down: set[str] = set()
        self.seen_ids: set[str] = set(self.harness.live_ids)
        self._writes = 0

    # ------------------------------------------------------------- helpers

    def _client(self, data):
        return data.draw(
            st.sampled_from(self.harness.front_ends), label="front_end"
        )

    def _next_value(self) -> tuple[str, int]:
        self._writes += 1
        return ("w", self._writes)

    # ------------------------------------------------------ data-plane ops

    @rule(data=st.data(), key=keys_st)
    def do_get(self, data, key) -> None:
        client = self._client(data)
        was_local = key in client.policy
        value = client.get(key)
        self.model.check_read(client.client_id, key, value, was_local)

    @rule(data=st.data(), keys=st.lists(keys_st, min_size=1, max_size=5))
    def do_get_many(self, data, keys) -> None:
        client = self._client(data)
        was_local = {key: key in client.policy for key in keys}
        values = client.get_many(keys)
        assert set(values) == set(keys)
        for key, value in values.items():
            self.model.check_read(client.client_id, key, value, was_local[key])

    @rule(data=st.data(), key=keys_st)
    def do_set(self, data, key) -> None:
        client = self._client(data)
        value = self._next_value()
        shard = self.harness.cluster.server_for(key).server_id
        client.set(key, value)
        self.model.note_write(
            client.client_id,
            key,
            value,
            shard=shard,
            shard_down=shard in self.down,
        )

    @rule(data=st.data(), key=keys_st)
    def do_delete(self, data, key) -> None:
        client = self._client(data)
        client.delete(key)
        self.model.note_delete(client.client_id, key)

    # --------------------------------------------------------- fault plane

    @rule(data=st.data())
    def kill_server(self, data) -> None:
        alive = [sid for sid in self.harness.live_ids if sid not in self.down]
        if not alive:
            return
        victim = data.draw(st.sampled_from(alive), label="victim")
        # Through the harness: on the socket plane this also severs the
        # victim's live TCP connections, not just its injected fault.
        self.harness.kill_server(victim)
        self.down.add(victim)

    @precondition(lambda self: self.down)
    @rule(data=st.data())
    def revive_server(self, data) -> None:
        victim = data.draw(st.sampled_from(sorted(self.down)), label="revived")
        # Cold by default: the cloud failure model under which the
        # zero-stale-read guarantee holds (a restarted instance is empty).
        self.harness.cluster.revive_server(victim, cold=True)
        self.down.discard(victim)
        # Cold revival drops the dead incarnation's write-behind queue.
        self.model.note_cold_revival(victim)

    # ------------------------------------------------------ topology churn

    @precondition(lambda self: self.harness and len(self.harness.live_ids) < MAX_SERVERS)
    @rule()
    def add_server(self) -> None:
        server = self.harness.cluster.add_server()
        new_ids = set(self.harness.live_ids) - self.seen_ids
        assert len(new_ids) == 1, f"add_server changed membership by {new_ids}"
        (new_id,) = new_ids
        # S1: ids are minted monotonically, never reusing a removed
        # shard's name — and the fresh shard starts with no cached keys.
        assert new_id not in self.seen_ids, f"shard id {new_id} was reused"
        self.seen_ids.add(new_id)
        assert not list(server.keys()), "fresh shard started non-empty"
        assert not self.harness.faults.is_down(new_id), (
            "fresh shard inherited a dead incarnation's fault profile"
        )

    @precondition(lambda self: self.harness and len(self.harness.live_ids) > MIN_SERVERS)
    @rule(data=st.data())
    def remove_server(self, data) -> None:
        victim = data.draw(
            st.sampled_from(sorted(self.harness.live_ids)), label="removed"
        )
        self.harness.cluster.remove_server(victim)
        self.down.discard(victim)
        # Graceful scale-in drains the departing shard's queue.
        self.model.note_shard_removed(victim)

    # ------------------------------------------------------- control plane

    @rule(data=st.data())
    def close_epoch(self, data) -> None:
        client = self._client(data)
        record = client.close_epoch()
        assert record.snapshot.imbalance >= 1.0 or record.snapshot.imbalance == 0.0

    @precondition(lambda self: self.harness and self.harness.router is not None)
    @rule()
    def router_refresh(self) -> None:
        self.harness.router.refresh(self.harness.front_ends)

    @precondition(
        lambda self: self.harness
        and self.harness.write_policy is not None
        and self.harness.write_policy.buffered
    )
    @rule()
    def flush_writes(self) -> None:
        """The runner's cadence flush: drain every reachable queue."""
        self.harness.write_policy.flush()
        self.model.note_flush(self.down)

    @precondition(lambda self: self.harness and self.harness.router is not None)
    @rule(key=keys_st)
    def promote_key(self, key) -> None:
        replicas = self.harness.router.promote(key)
        assert replicas, "promotion returned an empty replica set"

    @precondition(lambda self: self.harness and self.harness.router is not None)
    @rule(key=keys_st)
    def demote_key(self, key) -> None:
        self.harness.router.demote(key)

    def teardown(self) -> None:
        if self.harness is not None:
            self.harness.close()

    # ----------------------------------------------------------- invariants

    @invariant()
    def structural_invariants(self) -> None:
        if self.harness is None:
            return
        check_cluster_invariants(self.harness)

    @invariant()
    def down_set_matches_model(self) -> None:
        if self.harness is None:
            return
        actual = self.harness.faults.down_servers()
        assert actual == frozenset(self.down), (
            f"fault-injector down set {sorted(actual)} diverged from the "
            f"machine's model {sorted(self.down)} — a shard is down (or up) "
            f"that the test never touched"
        )


TestElasticCluster = ElasticClusterMachine.TestCase
TestElasticCluster.settings = settings(
    max_examples=int(os.environ.get("CLUSTER_FUZZ_EXAMPLES", "25")),
    stateful_step_count=int(os.environ.get("CLUSTER_FUZZ_STEPS", "30")),
    derandomize=os.environ.get("CLUSTER_FUZZ_DERANDOMIZE", "") == "1",
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
