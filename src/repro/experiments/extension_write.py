"""Extension: the write-path coherence axis under elastic control.

The paper's evaluation is read-dominated: writes invalidate the
front-end copy (cache-aside) and everything else follows from read
traffic. Real deployments pick a *write policy* too — and the choice
changes both the coherence guarantee and what an elastic controller
should optimize for. This experiment drives the full YCSB core suite
(A-F, :mod:`repro.workloads.ycsb`) across every mode of
:mod:`repro.cluster.writepolicy`:

* **cache-aside** — the paper's inline protocol (invalidate on write);
* **write-through** — the shard is updated synchronously, so an
  acknowledged write is never served stale from the caching layer;
* **write-behind** — acknowledged writes queue in bounded per-shard
  dirty buffers and flush on the runner's cadence; a shard crash can
  lose at most ``dirty_limit`` acknowledged writes;
* **ttl** — writes go to storage only and cached copies expire on a
  logical clock (bounded staleness instead of invalidation traffic).

Each (letter, mode) cell runs twice on identical seeds with elastic
front ends (:class:`~repro.core.elastic.ElasticCoTClient`): once under
the paper's imbalance controller
(:class:`~repro.core.resizing.ResizingController`) and once under the
cost-aware controller (:class:`~repro.core.costaware.CostAwareController`,
after Carra et al. arXiv:1802.04696). The comparison column is the
*net value* ledger both controllers are implicitly optimizing:
``hit_value x hits - line_cost x sum(cache lines rented per epoch)`` —
the imbalance controller buys hits with memory until balance is reached;
the cost controller stops when the marginal line no longer pays rent.

The run closes with a write-behind chaos check: kill the shard holding
the deepest dirty buffer mid-stream, revive it cold, and assert the
acknowledged-write loss is bounded by ``dirty_limit`` — the loss budget
the mode advertises (also pinned, step for step, by the model-based
fuzzer in ``tests/test_cluster_stateful.py``).
"""

from __future__ import annotations

import random
from typing import Any

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector
from repro.cluster.writepolicy import WRITE_MODES, WriteBehindPolicy
from repro.core.costaware import CostAwareController
from repro.core.elastic import ElasticCoTClient
from repro.engine import (
    ClusterRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    WriteSpec,
)
from repro.engine import telemetry as T
from repro.engine.registry import register_experiment
from repro.engine.runners import ScenarioResult
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, Scale
from repro.policies.registry import make_policy
from repro.workloads.ycsb import CoreWorkload, YcsbOperationSource

__all__ = [
    "EXPERIMENT_ID",
    "run",
    "run_cell",
    "write_behind_chaos_check",
]

EXPERIMENT_ID = "ext-write"

LETTERS = ("a", "b", "c", "d", "e", "f")
CONTROLLERS = ("imbalance", "cost")

#: the net-value ledger (units arbitrary; only the ratio matters) —
#: shared with CostAwareController's defaults so its break-even rate
#: is exactly the ledger it is scored on
HIT_VALUE = 1.0
LINE_COST = 0.05

TARGET_IMBALANCE = 1.5
INITIAL_CACHE = 4
INITIAL_TRACKER = 8
BASE_EPOCH = 512

#: write-behind loss budget (per shard) for the grid and the chaos check
DIRTY_LIMIT = 32
FLUSH_EVERY = 1_024
#: ttl mode: logical-clock ticks a cached copy lives
TTL_TICKS = 2_048


class _YcsbMixerFactory:
    """Picklable per-client YCSB stream factory (module-level class)."""

    def __init__(self, letter: str, record_count: int, seed: int) -> None:
        self.letter = letter
        self.record_count = record_count
        self.seed = seed

    def __call__(self, client_index: int) -> YcsbOperationSource:
        return YcsbOperationSource(
            CoreWorkload(
                self.letter,
                record_count=self.record_count,
                seed=self.seed + 1_000 * client_index,
            )
        )


class _ElasticFactory:
    """Picklable elastic-front-end factory, one controller kind per run."""

    def __init__(self, kind: str, base_epoch: int = BASE_EPOCH) -> None:
        if kind not in CONTROLLERS:
            raise ExperimentError(f"unknown controller kind: {kind!r}")
        self.kind = kind
        self.base_epoch = base_epoch

    def __call__(self, cluster: CacheCluster, index: int) -> ElasticCoTClient:
        controller = None
        if self.kind == "cost":
            controller = CostAwareController(
                hit_value=HIT_VALUE, line_cost=LINE_COST
            )
        return ElasticCoTClient(
            cluster,
            target_imbalance=TARGET_IMBALANCE,
            initial_cache=INITIAL_CACHE,
            initial_tracker=INITIAL_TRACKER,
            base_epoch=self.base_epoch,
            controller=controller,
            client_id=f"elastic-{index}",
        )


def _cell_spec(
    scale: Scale, letter: str, mode: str, controller: str
) -> ScenarioSpec:
    return ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(
            mixer_factory=_YcsbMixerFactory(letter, scale.key_space, scale.seed)
        ),
        topology=TopologySpec(
            num_servers=scale.num_servers,
            num_clients=scale.num_clients,
            write=None if mode == "cache-aside" else WriteSpec(
                mode=mode,
                dirty_limit=DIRTY_LIMIT,
                flush_every=FLUSH_EVERY,
                ttl=TTL_TICKS,
            ),
        ),
        client_factory=_ElasticFactory(controller),
    )


class CellMetrics:
    """What one (letter, mode, controller) run contributes."""

    def __init__(self, result: ScenarioResult) -> None:
        counters = result.telemetry.counters
        self.hits = counters.get(T.HITS, 0)
        self.misses = counters.get(T.MISSES, 0)
        accesses = self.hits + self.misses
        self.hit_rate = self.hits / accesses if accesses else 0.0
        clients = [
            c for c in result.front_ends if isinstance(c, ElasticCoTClient)
        ]
        #: cache lines rented, summed over every client's every epoch —
        #: the memory-cost integral of the run
        self.lines_rented = sum(
            record.snapshot.cache_capacity
            for client in clients
            for record in client.history
        )
        self.epochs = sum(len(client.history) for client in clients)
        self.final_cache = max(
            (client.cot.capacity for client in clients), default=0
        )
        self.net_value = HIT_VALUE * self.hits - LINE_COST * self.lines_rented
        self.lost_writes = counters.get(T.WRITE_LOST, 0)

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "lines_rented": self.lines_rented,
            "epochs": self.epochs,
            "final_cache": self.final_cache,
            "net_value": self.net_value,
            "lost_writes": self.lost_writes,
        }


def run_cell(
    scale: Scale, letter: str, mode: str, controller: str
) -> CellMetrics:
    """One grid cell: a YCSB letter at a write mode under one controller."""
    result = ClusterRunner().run(_cell_spec(scale, letter, mode, controller))
    return CellMetrics(result)


def write_behind_chaos_check(
    dirty_limit: int = 8, accesses: int = 6_000, seed: int = 7
) -> dict[str, Any]:
    """Kill the dirtiest shard mid-run; the loss must stay <= dirty_limit.

    Drives a front end by hand (no runner) so the kill lands while the
    victim's dirty buffer is at a known depth: writes queue, the shard
    crashes, a cold revival drops the dead incarnation's queue — and the
    acknowledged-write loss is exactly that frozen queue, never more
    than the advertised bound.
    """
    faults = FaultInjector()
    cluster = CacheCluster(num_servers=4, faults=faults)
    wb = WriteBehindPolicy(cluster, dirty_limit=dirty_limit)
    client = FrontEndClient(
        cluster,
        make_policy("cot", 64, tracker_capacity=128),
        client_id="chaos-fe",
    )
    client.attach_write_policy(wb)
    rng = random.Random(seed)

    def drive(n: int) -> None:
        for _ in range(n):
            key = f"key-{rng.randrange(4096)}"
            if rng.random() < 0.5:
                client.set(key, (key, rng.random()))
            else:
                client.get(key)

    drive(accesses // 2)
    snapshot = wb.dirty_snapshot()
    victim = max(
        cluster.server_ids, key=lambda sid: len(snapshot.get(sid, {}))
    )
    frozen = len(snapshot.get(victim, {}))
    cluster.kill_server(victim)
    drive(accesses // 4)  # victim-bound writes sync-fall-back to storage
    # A re-write of a queued key while the shard is down supersedes the
    # queue entry durably (sync fallback + discard), so the loss at
    # revival is the *remaining* depth — still bounded by dirty_limit.
    at_revival = len(wb.dirty_snapshot().get(victim, {}))
    cluster.revive_server(victim, cold=True)  # drops the frozen queue
    drive(accesses // 4)
    wb.flush()
    lost = wb.stats.lost_writes
    return {
        "dirty_limit": dirty_limit,
        "frozen_depth": frozen,
        "depth_at_revival": at_revival,
        "write_behind_lost": lost,
        "peak_dirty": wb.stats.peak_dirty,
        "bound_ok": (
            lost == at_revival
            and lost <= dirty_limit
            and wb.stats.peak_dirty <= dirty_limit
        ),
    }


def _cell_scale(scale: Scale) -> Scale:
    """Per-cell sizing: the 48-cell grid shares the scale's op budget."""
    return scale.scaled(
        accesses=max(24_000, scale.accesses // 16),
        num_clients=2,
        key_space=min(scale.key_space, 20_000),
    )


def run(scale: Scale | None = None) -> ExperimentResult:
    """The full grid + the write-behind chaos check; returns the table."""
    scale = scale or Scale.default()
    cell = _cell_scale(scale)
    rows: list[list[object]] = []
    extras: dict[str, Any] = {"cells": {}}
    cost_wins = 0
    for letter in LETTERS:
        for mode in WRITE_MODES:
            metrics = {
                kind: run_cell(cell, letter, mode, kind)
                for kind in CONTROLLERS
            }
            if metrics["cost"].net_value >= metrics["imbalance"].net_value:
                cost_wins += 1
            for kind in CONTROLLERS:
                m = metrics[kind]
                rows.append(
                    [
                        letter.upper(),
                        mode,
                        kind,
                        f"{m.hit_rate:.1%}",
                        m.final_cache,
                        m.epochs,
                        round(m.net_value, 1),
                    ]
                )
            extras["cells"][f"{letter}/{mode}"] = {
                kind: metrics[kind].as_dict() for kind in CONTROLLERS
            }
    chaos = write_behind_chaos_check()
    if not chaos["bound_ok"]:
        raise ExperimentError(
            f"write-behind chaos lost {chaos['write_behind_lost']} acknowledged "
            f"writes against a dirty_limit of {chaos['dirty_limit']}"
        )
    extras.update(chaos)
    extras["cost_wins"] = cost_wins
    total_cells = len(LETTERS) * len(WRITE_MODES)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            "Extension — write-path coherence x elastic control "
            f"(YCSB A-F, {len(WRITE_MODES)} write modes, 2 controllers)"
        ),
        headers=[
            "workload", "write_mode", "controller", "hit_rate",
            "final_C", "epochs", "net_value",
        ],
        rows=rows,
        notes=[
            f"net_value = {HIT_VALUE:g} x hits - {LINE_COST:g} x cache lines "
            "rented per epoch (summed over clients) — the ledger the "
            "cost-aware controller drives to break-even",
            f"cost-aware controller matches or beats the imbalance "
            f"controller's net value in {cost_wins}/{total_cells} cells",
            f"write-behind chaos: killed the dirtiest shard cold with "
            f"{chaos['frozen_depth']} queued writes; lost "
            f"{chaos['write_behind_lost']} acknowledged writes "
            f"(bound: dirty_limit={chaos['dirty_limit']}) — bound held",
            "workload E is scan-heavy: scans route through get_many and do "
            "not tick the elastic epoch counter, so E closes fewer epochs "
            "than the point-read letters at the same op count",
        ],
        extras=extras,
    )


register_experiment(
    EXPERIMENT_ID,
    "write-path modes x YCSB A-F under imbalance vs cost-aware control",
    run,
    order=120,
)
