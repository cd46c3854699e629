"""Model-based fuzzing of the whole elastic cluster.

One hypothesis :class:`RuleBasedStateMachine` drives random interleavings
of the full operation surface — ``get`` / ``set`` / ``delete`` /
``get_many`` / ``kill_server`` / ``revive_server`` / ``add_server`` /
``remove_server`` / epoch closes / router refreshes / write-behind
flushes — against the dict-backed oracle in ``tests/_cluster_oracle.py``,
once per row of the topology grid ``FLOOR``. A row picks one value per
axis in ``AXES`` (front-end count × front-end kind × replication × write
mode × socket plane × breaker aggressiveness) and becomes a
:class:`~repro.engine.spec.ScenarioSpec`, built by the runner's own
:func:`~repro.engine.runners.build_cluster`: the fuzz steps exactly the
objects the experiments run. After every step the machine asserts the
oracle's write-mode-aware freshness budget and structural invariants
(``tests/_cluster_oracle.py``), that the fault injector's down set
matches the machine's own kill/revive model (a freshly added shard
inheriting a dead incarnation's profile shows up here), and that
``add_server`` mints a never-before-seen id whose shard starts empty.

Every counterexample this machine has shaken out is preserved as a named
deterministic regression test (see ``test_cluster.py``, ``test_faults.py``,
``test_replication.py``, ``test_writepolicy.py``) so the fixes cannot
regress even at ``max_examples=0``.

Budget knobs (all via environment, used by ``scripts/verify.sh``):

* ``CLUSTER_FUZZ_EXAMPLES`` — hypothesis examples across the whole grid,
  split evenly over its rows, rounded up (default 25);
* ``CLUSTER_FUZZ_STEPS`` — ``stateful_step_count`` (default 30);
* ``CLUSTER_FUZZ_DERANDOMIZE=1`` — deterministic CI profile.

To replay a specific run: ``python -m pytest tests/test_cluster_stateful.py
--hypothesis-seed=<N>`` (any failure is shrunk and printed as a minimal
rule sequence to copy into a named regression test).
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from functools import partial
from itertools import combinations, product
from typing import Any

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant
from hypothesis.stateful import precondition, rule, run_state_machine_as_test

from repro.cluster.client import FrontEndClient
from repro.cluster.faults import FaultInjector
from repro.cluster.replication import ReplicationConfig
from repro.cluster.retry import BreakerConfig, ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.core.elastic import ElasticCoTClient
from repro.engine.runners import build_cluster
from repro.engine.spec import (
    ArbitrationSpec,
    NetworkSpec,
    PolicySpec,
    Scale,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    WriteSpec,
)
from repro.policies.adaptive import AdaptiveArbiter
from tests._cluster_oracle import ClusterModel, check_cluster_invariants
from tests._cluster_oracle import synthesized_value

#: The arbitrated front end: CoT live, every candidate in a full-size
#: shadow, and epochs short enough that live-policy switches (and their
#: warm handoffs) happen within one run.
ARBITRATED = PolicySpec(
    "cot",
    cache_lines=4,
    tracker_lines=8,
    arbitration=ArbitrationSpec(epoch_length=4, sample_shift=0, min_samples=2),
)

#: The grid's axes: each maps a value's label (its part of a row id, ""
#: when the axis is off) to the value the row's spec is built from. An
#: axis is a spec field the cluster builder honours plus one entry here.
AXES: dict[str, dict[str, Any]] = {
    "front_ends": {"1fe": 1, "2fe": 2, "3fe": 3},
    # The policy spec an arbitrated front end runs; None is elastic.
    "kind": {"elastic": None, "arbitrated": ARBITRATED},
    # A low promotion bar and a small cap: with a dozen-key universe the
    # tier promotes and demotes constantly, so the replicated read, write
    # and quarantine paths face maximal churn.
    "replication": {
        "": None,
        "replicated": ReplicationConfig(
            degree=2, top_n=8, max_keys=4, min_share=0.02
        ),
    },
    # Tiny bounds, so bound-flushes and expirations fire within a run.
    "write": {
        "": None,
        "writethrough": WriteSpec("write-through"),
        "writebehind": WriteSpec("write-behind", dirty_limit=2),
        "ttl": WriteSpec("ttl", ttl=6),
    },
    # Shards served over localhost sockets: kill/revive also exercises
    # real TCP teardown and the client's lazy reconnect.
    "network": {"": None, "network": NetworkSpec()},
    # (max_attempts, breaker): tight trips a breaker on the first failure
    # with a short cooldown, so OPEN/HALF_OPEN traffic dominates short runs.
    "guard": {
        "": (3, None),
        "tight": (2, BreakerConfig(failure_threshold=1, cooldown=6.0)),
    },
}

Row = tuple[str, ...]


def _row(**labels: str) -> Row:
    """A grid row: ``labels`` on the named axes, the first value elsewhere."""
    return tuple(labels.get(axis, next(iter(values))) for axis, values in AXES.items())


def row_id(row: Row) -> str:
    return "-".join(label for label in row if label)


def row_pairs(row: Row) -> set[tuple[tuple[int, str], tuple[int, str]]]:
    """The pairs of (axis, value) cells a row covers."""
    return set(combinations(enumerate(row), 2))


#: The hand-written topology cases the grid started from, kept as rows.
LEGACY = (
    _row(),
    _row(front_ends="3fe"),
    _row(front_ends="2fe", replication="replicated"),
    _row(front_ends="2fe", guard="tight"),
    _row(front_ends="3fe", replication="replicated"),
    _row(front_ends="2fe", replication="replicated", guard="tight"),
    _row(front_ends="2fe", write="writethrough"),
    _row(write="writebehind"),
    _row(front_ends="2fe", write="writebehind", guard="tight"),
    _row(front_ends="2fe", write="ttl"),
    _row(network="network"),
)


def pairwise_floor(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    """``rows`` plus, greedily, the full row covering the most pairs still
    uncovered, until every pair of axis values appears in some row."""
    grid = list(product(*AXES.values()))
    uncovered = set().union(*map(row_pairs, grid))
    for row in rows:
        uncovered -= row_pairs(row)
    while uncovered:
        best = max(grid, key=lambda row: len(row_pairs(row) & uncovered))
        rows += (best,)
        uncovered -= row_pairs(best)
    return rows


FLOOR = pairwise_floor(LEGACY)

#: Small key universe so random operations collide on keys constantly —
#: collisions are where invalidation, replication and re-homing bugs live.
KEYS = tuple(f"k{i}" for i in range(12))

#: Three shards to start; only the topology is read from the scale.
SCALE = Scale("fuzz", key_space=len(KEYS), accesses=0, num_servers=3)

#: Topology churn bounds: never below 2 shards (the ring stays
#: meaningful), never above 6 (placements keep overlapping).
MIN_SERVERS = 2
MAX_SERVERS = 6

keys_st = st.sampled_from(KEYS)


def client_factory(
    policy: PolicySpec | None, guard: tuple, target: Any, index: int
) -> FrontEndClient:
    """One fuzzed front end: arbitrated over ``policy``, else elastic."""
    max_attempts, breaker = guard
    kwargs = dict(
        client_id=f"fe-{index}",
        guard=ClusterGuard(target.server_ids, max_attempts=max_attempts, breaker=breaker),
    )
    if policy is not None:
        return FrontEndClient(target, policy.build(index), **kwargs)
    return ElasticCoTClient(
        target,
        target_imbalance=1.5,
        initial_cache=4,
        initial_tracker=8,
        base_epoch=24,
        **kwargs,
    )


class ElasticClusterMachine(RuleBasedStateMachine):
    """Random walks over the full surface of one grid row, checked per step."""

    def __init__(self, row: Row, switches: list[int]) -> None:
        super().__init__()
        #: each example's live-policy switch count lands here at teardown
        self.switches = switches
        self.axes = {axis: AXES[axis][label] for axis, label in zip(AXES, row)}
        self._exit = ExitStack()
        self.ctx = None

    @initialize(seed=st.integers(min_value=0, max_value=127))
    def build(self, seed: int) -> None:
        axes = self.axes
        spec = ScenarioSpec(
            scale=SCALE,
            workload=WorkloadSpec(),
            topology=TopologySpec(
                num_clients=axes["front_ends"],
                capacity_bytes=1 << 16,
                storage=PersistentStore(value_factory=synthesized_value),
                faults=FaultInjector(seed=seed),
                replication=axes["replication"],
                write=axes["write"],
                network=axes["network"],
            ),
            client_factory=partial(client_factory, axes["kind"], axes["guard"]),
            seed=seed,
        )
        self.ctx = self._exit.enter_context(build_cluster(spec))
        self.model = ClusterModel(axes["write"])
        #: shards the machine itself killed and has not revived/removed —
        #: the oracle for the fault injector's down set.
        self.down: set[str] = set()
        self.seen_ids: set[str] = set(self.ctx.cluster.server_ids)
        self._writes = 0

    # ------------------------------------------------------------- helpers

    def _client(self, data):
        return data.draw(st.sampled_from(self.ctx.front_ends), label="front_end")

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
        # The shard whose write-behind queue takes the write: a key with
        # replicated-tier state queues on its first write target.
        router = self.ctx.router
        targets = router.write_targets(key) if router is not None else ()
        shard = targets[0] if targets else self.ctx.cluster.server_for(key).server_id
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
        alive = [sid for sid in self.ctx.cluster.server_ids if sid not in self.down]
        if not alive:
            return
        victim = data.draw(st.sampled_from(alive), label="victim")
        self.ctx.cluster.kill_server(victim)
        if self.ctx.plane is not None:
            # A real instance failure severs live TCP connections too, so
            # the client's reconnect path runs, not just the injected fault.
            self.ctx.plane.drop_connections(victim)
        self.down.add(victim)

    @precondition(lambda self: self.down)
    @rule(data=st.data())
    def revive_server(self, data) -> None:
        victim = data.draw(st.sampled_from(sorted(self.down)), label="revived")
        # Cold by default: the cloud failure model under which the
        # zero-stale-read guarantee holds (a restarted instance is empty).
        self.ctx.cluster.revive_server(victim, cold=True)
        self.down.discard(victim)
        # Cold revival drops the dead incarnation's write-behind queue.
        self.model.note_cold_revival(victim)

    # ------------------------------------------------------ topology churn

    @precondition(lambda self: len(self.ctx.cluster.server_ids) < MAX_SERVERS)
    @rule()
    def add_server(self) -> None:
        server = self.ctx.cluster.add_server()
        new_ids = set(self.ctx.cluster.server_ids) - self.seen_ids
        assert len(new_ids) == 1, f"add_server changed membership by {new_ids}"
        (new_id,) = new_ids
        # S1: ids are minted monotonically, never reusing a removed
        # shard's name — and the fresh shard starts with no cached keys.
        assert new_id not in self.seen_ids, f"shard id {new_id} was reused"
        self.seen_ids.add(new_id)
        assert not list(server.keys()), "fresh shard started non-empty"
        assert not self.ctx.cluster.faults.is_down(new_id), (
            "fresh shard inherited a dead incarnation's fault profile"
        )

    @precondition(lambda self: len(self.ctx.cluster.server_ids) > MIN_SERVERS)
    @rule(data=st.data())
    def remove_server(self, data) -> None:
        victim = data.draw(
            st.sampled_from(sorted(self.ctx.cluster.server_ids)), label="removed"
        )
        self.ctx.cluster.remove_server(victim)
        self.down.discard(victim)
        # Graceful scale-in drains the departing shard's queue.
        self.model.note_shard_removed(victim)

    # ------------------------------------------------------- control plane

    @precondition(lambda self: self.axes["kind"] is None)  # elastic front ends
    @rule(data=st.data())
    def close_epoch(self, data) -> None:
        client = self._client(data)
        record = client.close_epoch()
        assert record.snapshot.imbalance >= 1.0 or record.snapshot.imbalance == 0.0

    @precondition(lambda self: self.ctx.router is not None)
    @rule()
    def router_refresh(self) -> None:
        self.ctx.router.refresh(self.ctx.front_ends)

    @precondition(
        lambda self: self.ctx.write_policy is not None
        and self.ctx.write_policy.buffered
    )
    @rule()
    def flush_writes(self) -> None:
        """The runner's cadence flush: drain every reachable queue."""
        self.ctx.write_policy.flush()
        self.model.note_flush(self.down)

    @precondition(lambda self: self.ctx.router is not None)
    @rule(key=keys_st)
    def promote_key(self, key) -> None:
        replicas = self.ctx.router.promote(key)
        assert replicas, "promotion returned an empty replica set"

    @precondition(lambda self: self.ctx.router is not None)
    @rule(key=keys_st)
    def demote_key(self, key) -> None:
        self.ctx.router.demote(key)

    def teardown(self) -> None:
        if self.ctx is not None:
            self.switches.append(sum(
                c.policy.switches
                for c in self.ctx.front_ends
                if isinstance(c.policy, AdaptiveArbiter)
            ))
        self._exit.close()

    # ----------------------------------------------------------- invariants

    @invariant()
    def structural_invariants(self) -> None:
        check_cluster_invariants(self.ctx, self.model)

    @invariant()
    def down_set_matches_model(self) -> None:
        actual = self.ctx.cluster.faults.down_servers()
        assert actual == frozenset(self.down), (
            f"fault-injector down set {sorted(actual)} diverged from the "
            f"machine's model {sorted(self.down)} — a shard is down (or up) "
            f"that the test never touched"
        )


SETTINGS = settings(
    max_examples=math.ceil(
        int(os.environ.get("CLUSTER_FUZZ_EXAMPLES", "25")) / len(FLOOR)
    ),
    stateful_step_count=int(os.environ.get("CLUSTER_FUZZ_STEPS", "30")),
    derandomize=os.environ.get("CLUSTER_FUZZ_DERANDOMIZE", "") == "1",
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


@pytest.mark.parametrize("row", FLOOR, ids=row_id)
def test_row(row: Row) -> None:
    switches: list[int] = []
    run_state_machine_as_test(
        lambda: ElasticClusterMachine(row, switches), settings=SETTINGS
    )
    if "arbitrated" in row:
        print(f"{row_id(row)}: {sum(switches)} arbiter switches")


def test_floor_keeps_the_legacy_rows_and_covers_every_pair() -> None:
    assert all(row in FLOOR for row in LEGACY)
    covered = set().union(*map(row_pairs, FLOOR))
    assert covered == set().union(*map(row_pairs, product(*AXES.values())))
    # Each generated row covers a pair no other row does: none can go.
    for i, row in enumerate(FLOOR[len(LEGACY):], start=len(LEGACY)):
        rest = set().union(*map(row_pairs, FLOOR[:i] + FLOOR[i + 1:]))
        assert row_pairs(row) - rest, f"{row_id(row)} covers no pair of its own"
