"""Extension: hot-key replication — breaking the single-shard ceiling.

Consistent hashing pins every key to one shard, so the cluster's
throughput on a skewed workload is capped by its hottest shard: once one
key draws more traffic than a single shard can serve, adding shards
changes nothing (the DistCache observation, arXiv:1901.08200). CoT's
front-end caches absorb *read-mostly* hot keys locally, but a hot key
that is also written is re-invalidated on every update and hammers its
owner regardless — the adversarial case this harness drives.

Two scenarios, each run twice on identical seeds (classic single-owner
protocol vs the replicated hot-key tier of
:mod:`repro.cluster.replication`):

* **single-hot-key** — one key takes ``HOT_OPN_FRACTION`` of all
  operations with a 50/50 read/write mix; the rest is uniform. The
  steady-state stress case: one shard is the bottleneck by construction.
* **flash-crowd** — the same shape, but the hot key *moves* halfway
  through each client's stream (key 0 → key ``key_space/2``): the tier
  must demote the old celebrity and promote the new one mid-run, so the
  win survives non-stationarity.

Reported per run: the per-shard get distribution's max and spread
(max/mean), the bottleneck parallelism factor (total backend gets /
hottest-shard gets — with shards serving at a fixed rate, cluster
throughput is proportional to it), and the tier's promotion/routing
counters. The verdict is a ratio of counts, so it is deterministic and
:func:`run` owns it: it raises :class:`~repro.errors.ExperimentError`
unless the replicated single-hot-key run promoted, served replicated
reads, and keeps >= 2x modeled throughput and <= 0.5x max-shard spread
vs unreplicated — which fails ``verify.sh``'s engine-smoke stage.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.replication import ReplicationConfig
from repro.engine import (
    ClusterRunner,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.engine import telemetry as T
from repro.engine.registry import register_experiment
from repro.engine.runners import ScenarioResult
from repro.experiments.common import ExperimentResult, Scale, require
from repro.workloads.base import KeyGenerator
from repro.workloads.hotspot import HotspotGenerator
from repro.workloads.shift import Phase as WorkloadPhase
from repro.workloads.shift import PhasedWorkload, RotatingHotSetGenerator

__all__ = [
    "EXPERIMENT_ID",
    "HotKeyMetrics",
    "run",
    "run_pair",
]

EXPERIMENT_ID = "ext-hotkey"

#: fraction of operations aimed at the (single) hot key
HOT_OPN_FRACTION = 0.8
#: read share of the mix — the writes are what defeats front-end caching:
#: every update invalidates the local copy, so the hot key keeps hitting
#: its backend shard no matter how good the front-end cache is
READ_FRACTION = 0.5
#: replica set size for promoted keys
DEGREE = 3
#: the tier's targets on the single-hot-key pair, enforced by :func:`run`
THROUGHPUT_TARGET = 2.0
SPREAD_TARGET = 0.5


class SingleHotKeyWorkload:
    """Per-client hotspot streams with one shared hot key (id 0)."""

    def __init__(self, key_space: int, seed: int) -> None:
        self.key_space = key_space
        self.seed = seed

    def __call__(self, client_index: int) -> KeyGenerator:
        return HotspotGenerator(
            self.key_space,
            hot_set_fraction=1.0 / self.key_space,  # exactly one hot key
            hot_opn_fraction=HOT_OPN_FRACTION,
            seed=self.seed + client_index,
        )


class FlashCrowdWorkload:
    """The hot key jumps from id 0 to id ``key_space/2`` mid-stream."""

    def __init__(self, key_space: int, seed: int, switch_after: int) -> None:
        self.key_space = key_space
        self.seed = seed
        self.switch_after = switch_after

    def __call__(self, client_index: int) -> KeyGenerator:
        before = HotspotGenerator(
            self.key_space,
            hot_set_fraction=1.0 / self.key_space,
            hot_opn_fraction=HOT_OPN_FRACTION,
            seed=self.seed + client_index,
        )
        after = RotatingHotSetGenerator(
            HotspotGenerator(
                self.key_space,
                hot_set_fraction=1.0 / self.key_space,
                hot_opn_fraction=HOT_OPN_FRACTION,
                seed=self.seed + 10_000 + client_index,
            ),
            offset=self.key_space // 2,
        )
        return PhasedWorkload(
            [
                WorkloadPhase(before, self.switch_after),
                WorkloadPhase(after, None),
            ]
        )


class HotKeyMetrics:
    """The numbers one run contributes to the comparison."""

    def __init__(self, result: ScenarioResult) -> None:
        snapshot = result.telemetry
        loads = snapshot.shard_loads
        self.total_gets = sum(loads.values())
        self.max_shard = max(loads.values()) if loads else 0
        self.min_shard = min(loads.values()) if loads else 0
        mean = self.total_gets / len(loads) if loads else 0.0
        #: max/mean — how far the hottest shard sits above fair share
        self.spread = self.max_shard / mean if mean else 1.0
        #: total/max — the bottleneck parallelism factor: cluster ops/s is
        #: (shard service rate) x this, since the hottest shard paces the run
        self.parallelism = (
            self.total_gets / self.max_shard if self.max_shard else 1.0
        )
        counters = snapshot.counters
        self.replicated_reads = counters.get(T.REPLICATED_READS, 0)
        self.promotions = counters.get(T.REPLICA_PROMOTIONS, 0)
        self.demotions = counters.get(T.REPLICA_DEMOTIONS, 0)
        self.failed_invalidations = counters.get(
            T.FAILED_REPLICA_INVALIDATIONS, 0
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "total_gets": self.total_gets,
            "max_shard": self.max_shard,
            "min_shard": self.min_shard,
            "spread": self.spread,
            "parallelism": self.parallelism,
            "replicated_reads": self.replicated_reads,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "failed_invalidations": self.failed_invalidations,
        }


def _build_spec(
    scale: Scale,
    workload_factory: Any,
    replicated: bool,
    num_servers: int,
) -> ScenarioSpec:
    replication = ReplicationConfig(
        degree=DEGREE,
        min_share=0.05,
        refresh_every=max(512, scale.accesses // 64),
    ) if replicated else None
    return ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(
            generator_factory=workload_factory, read_fraction=READ_FRACTION
        ),
        policy=PolicySpec(name="cot", cache_lines=256, tracker_lines=512),
        topology=TopologySpec(
            num_servers=num_servers, replication=replication
        ),
    )


def run_pair(
    scale: Scale, scenario: str = "single-hot-key", num_servers: int = 8
) -> tuple[HotKeyMetrics, HotKeyMetrics]:
    """One scenario, both modes, identical seeds: (unreplicated, replicated)."""
    per_client = scale.accesses // scale.num_clients
    if scenario == "single-hot-key":
        factory = SingleHotKeyWorkload(scale.key_space, scale.seed)
    elif scenario == "flash-crowd":
        factory = FlashCrowdWorkload(
            scale.key_space, scale.seed, switch_after=max(1, per_client // 2)
        )
    else:
        raise ValueError(f"unknown hot-key scenario: {scenario!r}")
    runner = ClusterRunner()
    baseline = HotKeyMetrics(
        runner.run(_build_spec(scale, factory, False, num_servers))
    )
    replicated = HotKeyMetrics(
        runner.run(_build_spec(scale, factory, True, num_servers))
    )
    return baseline, replicated


def run(scale: Scale | None = None, num_servers: int = 8) -> ExperimentResult:
    """Both adversarial scenarios, replicated vs not; returns the table."""
    scale = scale or Scale.default()
    rows: list[list[object]] = []
    extras: dict[str, Any] = {}
    for scenario in ("single-hot-key", "flash-crowd"):
        baseline, replicated = run_pair(scale, scenario, num_servers)
        speedup = replicated.parallelism / baseline.parallelism
        spread_ratio = replicated.spread / baseline.spread
        for mode, m in (("classic", baseline), ("replicated", replicated)):
            rows.append(
                [
                    scenario,
                    mode,
                    m.total_gets,
                    m.max_shard,
                    round(m.spread, 3),
                    round(m.parallelism, 3),
                    m.replicated_reads,
                    m.promotions,
                    m.demotions,
                ]
            )
        extras[scenario] = {
            "baseline": baseline.as_dict(),
            "replicated": replicated.as_dict(),
            "throughput_speedup": speedup,
            "spread_ratio": spread_ratio,
        }
    single = extras["single-hot-key"]
    replicated = single["replicated"]
    speedup, spread = single["throughput_speedup"], single["spread_ratio"]
    require(
        EXPERIMENT_ID,
        {
            "single-hot-key: the tier promotes and serves replicated reads": (
                replicated["replicated_reads"] > 0 and replicated["promotions"] > 0
            ),
            f"single-hot-key: modeled throughput speedup {speedup:.2f}x >= "
            f"{THROUGHPUT_TARGET:g}x": speedup >= THROUGHPUT_TARGET,
            f"single-hot-key: max-shard spread ratio {spread:.2f} <= "
            f"{SPREAD_TARGET:g}": spread <= SPREAD_TARGET,
        },
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"Extension — hot-key replication tier (R={DEGREE}, "
            f"two-choices routing, {num_servers} shards)"
        ),
        headers=[
            "scenario", "mode", "backend_gets", "max_shard", "spread",
            "parallelism", "repl_reads", "promoted", "demoted",
        ],
        rows=rows,
        notes=[
            f"hot key takes {HOT_OPN_FRACTION:.0%} of ops at "
            f"{READ_FRACTION:.0%} reads — the writes keep re-invalidating "
            "the front-end copy, so the hot key hits its shard regardless "
            "of local caching",
            "spread = hottest shard / mean shard load; parallelism = total "
            "gets / hottest shard — modeled cluster ops/s is the shard "
            "service rate times the parallelism factor",
            "single-hot-key speedup "
            f"{single['throughput_speedup']:.2f}x (gate >= "
            f"{THROUGHPUT_TARGET:g}x), spread ratio "
            f"{single['spread_ratio']:.2f} (gate <= {SPREAD_TARGET:g})",
            "flash-crowd moves the hot key mid-run: the tier promotes the "
            "new celebrity on the next refresh "
            f"({extras['flash-crowd']['replicated']['promotions']} "
            "promotions, "
            f"{extras['flash-crowd']['replicated']['demotions']} demotions "
            "over the run — the old key demotes once its cumulative "
            "tracker share decays below the hysteresis floor)",
        ],
        extras=extras,
    )


register_experiment(
    EXPERIMENT_ID,
    "hot-key replication tier vs classic single-owner routing",
    run,
    order=110,
)
