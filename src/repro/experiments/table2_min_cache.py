"""Table 2: minimum cache-lines per policy to reach back-end balance.

Paper setup: for Zipfian s ∈ {0.9, 0.99, 1.2}, first measure the
load-imbalance with no front-end cache, then for each policy (LRU, LFU,
ARC, LRU-2, CoT) find the minimum number of cache-lines for which the
back-end load-imbalance drops to the target I_t = 1.1.

Paper's numbers (1M keys, I_t=1.1):

    dist       no-cache   LRU   LFU   ARC   LRU-2   CoT
    zipf 0.90      1.35    64    16    16       8     8
    zipf 0.99      1.73   128    16    16      16     8
    zipf 1.20      4.18  2048  2048  1024    1024   512

Headline: CoT needs **50-93.75% fewer lines** than the others, and LRU-2
(whose history equals CoT's tracker) is the runner-up — tracking beyond
the cache is what buys balance per line.

The candidate sizes are powers of two, as in the paper; imbalance is
measured over the whole run's per-shard lookups.
"""

from __future__ import annotations

from repro.cluster.cluster import CacheCluster
from repro.cluster.loadmonitor import noise_allowance
from repro.engine import ClusterRunner, PolicySpec, ScenarioSpec, WorkloadSpec
from repro.engine.parallel import map_calls
from repro.engine.registry import register_experiment
from repro.experiments.common import (
    CLAIM_SCALES,
    ExperimentResult,
    Scale,
    TRACKER_RATIOS,
    require,
)
from repro.metrics import load_imbalance
from repro.policies.registry import POLICY_NAMES
from repro.workloads.base import format_key

__all__ = ["run", "EXPERIMENT_ID", "TARGET_IMBALANCE"]

EXPERIMENT_ID = "table2"
TARGET_IMBALANCE = 1.1
DISTS = ("zipf-0.9", "zipf-0.99", "zipf-1.2")
#: Fraction of accesses used to warm the caches before measurement starts.
#: The paper's 10M-access runs amortize cold-start misses away; at reduced
#: scale the warm-up phase must be excluded explicitly or its (cache-less)
#: skew dominates the measured imbalance.
WARMUP_FRACTION = 0.25


def _measure(
    dist: str,
    scale: Scale,
    policy_name: str | None,
    cache_size: int,
    shares: dict[str, float] | None = None,
) -> tuple[float, int]:
    """Measure steady-state back-end imbalance for one configuration.

    Clients are interleaved round-robin over independently seeded streams
    (the engine's interleaved mode); per-shard lookups are counted only
    after the warm-up fraction. When ``shares`` (the ring's key-count
    share per shard) is given, loads are normalized by them before taking
    max/min, removing the hashing layer's systematic spread from the
    measurement. Returns ``(imbalance, measured_lookups)``.
    """
    ratio = TRACKER_RATIOS.get(dist, 4)
    if policy_name is None or cache_size == 0:
        policy = PolicySpec()
    else:
        policy = PolicySpec(
            name=policy_name,
            cache_lines=cache_size,
            tracker_lines=ratio * cache_size,
        )
    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(dist=dist),
        policy=policy,
        interleave=True,
        warmup_fraction=WARMUP_FRACTION,
    )
    loads = dict(ClusterRunner().run(spec).telemetry.epoch_shard_loads)
    sample = sum(loads.values())
    if shares is None:
        return load_imbalance(loads), sample
    normalized = {
        sid: count / max(shares.get(sid, 0.0), 1e-12)
        for sid, count in loads.items()
    }
    return load_imbalance({s: int(round(v)) for s, v in normalized.items()}), sample


def _ring_shares(scale: Scale) -> dict[str, float]:
    """Expected per-shard key-count shares of the deterministic ring."""
    cluster = CacheCluster(
        num_servers=scale.num_servers, capacity_bytes=1 << 40, value_size=1
    )
    counts = {sid: 0 for sid in cluster.server_ids}
    for key_id in range(scale.key_space):
        counts[cluster.ring.server_for(format_key(key_id))] += 1
    return {sid: count / scale.key_space for sid, count in counts.items()}


def _candidate_sizes(key_space: int) -> list[int]:
    """Powers of two up to ~2% of the key space."""
    sizes = []
    size = 2
    while size <= max(512, key_space // 40):
        sizes.append(size)
        size *= 2
    return sizes


def _table2_task(
    dist: str,
    scale: Scale,
    policy_name: str | None,
    target: float,
    shares: dict[str, float] | None,
) -> object:
    """One fabric task of the Table 2 search (module-level: spawn-safe).

    ``policy_name`` of ``None`` is the distribution's no-cache baseline
    (returns the rounded imbalance); otherwise runs the full early-exit
    min-cache search for that policy (returns the found size or ``"-"``).
    Each task runs its interleaved measurements in the exact sequential
    order, so captured telemetry snapshots replay identically.
    """
    if policy_name is None:
        no_cache, _ = _measure(dist, scale, None, 0)
        return round(no_cache, 2)
    for size in _candidate_sizes(scale.key_space):
        imbalance, sample = _measure(dist, scale, policy_name, size, shares)
        if imbalance <= target * noise_allowance(sample, scale.num_servers):
            return size
    return "-"


def run(scale: Scale | None = None, target: float = TARGET_IMBALANCE) -> ExperimentResult:
    """Regenerate Table 2 at the given scale.

    At reduced scales the measured max/min ratio of even a perfectly
    balanced back end sits above 1.0: finite lookup samples have binomial
    spread, and small key spaces give the ring uneven key shares. Two
    corrections make the paper's acceptance test scale-invariant (both
    vanish at paper scale): per-shard loads are normalized by the ring's
    deterministic key shares, and the target gets a noise allowance
    derived from each trial's measured sample size (see
    :func:`~repro.cluster.loadmonitor.noise_allowance`).
    """
    scale = scale or Scale.default()
    shares = _ring_shares(scale)
    # One task per (dist × policy) search plus one no-cache baseline per
    # dist — each search keeps its early-exit loop intact inside its
    # worker; results come back in the sequential emission order.
    tasks = [
        (dist, scale, name, target, shares)
        for dist in DISTS
        for name in (None, *POLICY_NAMES)
    ]
    values = iter(map_calls(_table2_task, tasks))
    rows: list[list[object]] = []
    for dist in DISTS:
        row: list[object] = [dist, next(values)]
        for _name in POLICY_NAMES:
            row.append(next(values))
        rows.append(row)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Table 2 — min cache-lines to reach I_t = {target}",
        headers=["dist", "no_cache_imbalance", *POLICY_NAMES],
        rows=rows,
        notes=[
            f"{scale.accesses:,} lookups over {scale.key_space:,} keys, "
            f"{scale.num_clients} clients, {scale.num_servers} shards; "
            "candidate sizes are powers of two ('-' = never reached)",
            "loads normalized by ring key shares; target gets a per-trial "
            "finite-sample noise allowance (vanishes at paper scale)",
            "paper (1M keys): no-cache 1.35/1.73/4.18; CoT needs 8/8/512 "
            "lines vs 64/128/2048 for LRU — 50% to 93.75% less cache",
        ],
        extras={"target": target, "scale": scale.name},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def _check(result: ExperimentResult) -> None:
    # "-" (never reached) needs more lines than any size.
    claims = {}
    for dist, lru, cot in zip(
        result.column("dist"), result.column("lru"), result.column("cot")
    ):
        fewer = isinstance(cot, int) and (not isinstance(lru, int) or cot < lru)
        claims[f"CoT needs fewer lines than LRU on {dist} ({cot} vs {lru})"] = fewer
    require(EXPERIMENT_ID, claims)


register_experiment(
    EXPERIMENT_ID,
    "minimum cache-lines per policy to reach back-end balance",
    run,
    order=30,
)
