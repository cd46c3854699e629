"""Figure 3: the need for cache resizing.

Paper setup: 8 memcached shards, 20 clients, Zipfian s=1.5 over 1M keys,
10M lookups, CoT caches with a 4:1 tracker:cache ratio, front-end cache
size swept from 0 to 2048 lines. Reported series:

* back-end **load-imbalance** (max/min shard lookups) per cache size —
  drops from 16.26 (no cache) to below the 1.5 target by 64 lines;
* **relative server load** (back-end lookups vs the no-cache run) —
  the first 64 lines absorb ~91% of back-end load, the next 64 only ~2%
  more: the diminishing-returns argument for minimizing cache size.

The sweep's maximum cache size scales with the key space (the paper's
2048 lines ≈ 0.2% of its 1M keys).
"""

from __future__ import annotations

from repro.core.cache import CoTCache
from repro.engine import PolicySpec, ScenarioSpec, WorkloadSpec
from repro.engine.parallel import map_specs
from repro.engine.registry import register_experiment
from repro.experiments.common import CLAIM_SCALES, ExperimentResult, Scale, require

__all__ = ["run", "EXPERIMENT_ID"]

EXPERIMENT_ID = "fig3"

#: The paper's Figure 3 parameters.
THETA = 1.5
TRACKER_RATIO = 4
TARGET_IMBALANCE = 1.5


def sweep_sizes(key_space: int) -> list[int]:
    """0 plus powers of two up to ~0.2% of the key space (min 64)."""
    max_size = max(64, key_space // 500)
    sizes = [0]
    size = 2
    while size <= max_size:
        sizes.append(size)
        size *= 2
    return sizes


class _Fig3PolicyFactory:
    """Per-client CoT factory for one sweep point.

    A picklable callable class (not a closure) so the spec stays
    spawn-safe for the parallel fabric.
    """

    def __init__(self, size: int) -> None:
        self.size = size

    def __call__(self, _i: int) -> CoTCache:
        # Size 0 is represented by a capacity-0 CoT that never admits.
        if self.size == 0:
            return CoTCache(0, tracker_capacity=2)
        return CoTCache(self.size, tracker_capacity=TRACKER_RATIO * self.size)


def run(scale: Scale | None = None, sizes: list[int] | None = None) -> ExperimentResult:
    """Regenerate Figure 3 at the given scale."""
    scale = scale or Scale.default()
    sizes = sizes if sizes is not None else sweep_sizes(scale.key_space)
    dist = f"zipf-{THETA}"

    # One independent cluster run per sweep point, fanned across the
    # fabric; the baseline (no-cache) total comes from the first point.
    specs = [
        ScenarioSpec(
            scale=scale,
            workload=WorkloadSpec(dist=dist),
            policy=PolicySpec(factory=_Fig3PolicyFactory(cache_size)),
        )
        for cache_size in sizes
    ]
    snapshots = map_specs("cluster", specs)
    rows: list[list[object]] = []
    baseline_lookups: int | None = None
    reached_at: int | None = None
    for cache_size, telemetry in zip(sizes, snapshots):
        total = sum(telemetry.shard_loads.values())
        if baseline_lookups is None:
            baseline_lookups = total
        imbalance = telemetry.backend_imbalance
        relative = total / baseline_lookups if baseline_lookups else 1.0
        if reached_at is None and imbalance <= TARGET_IMBALANCE:
            reached_at = cache_size
        rows.append(
            [
                cache_size,
                round(imbalance, 2),
                round(relative, 4),
                round(telemetry.hit_rate, 4),
            ]
        )

    notes = [
        f"workload: Zipfian s={THETA}, {scale.key_space:,} keys, "
        f"{scale.accesses:,} lookups, {scale.num_clients} clients, "
        f"{scale.num_servers} shards, CoT tracker:cache = {TRACKER_RATIO}:1",
        "paper: no-cache imbalance 16.26; 64 lines reach I_t=1.5 and cut "
        "relative load by 91%; the second 64 lines add only ~2% more",
    ]
    if reached_at is not None:
        notes.append(
            f"measured: target I_t={TARGET_IMBALANCE} first reached at "
            f"{reached_at} cache-lines"
        )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Figure 3 — load-imbalance & relative load vs front-end cache size",
        headers=["cache_lines", "load_imbalance", "relative_server_load", "hit_rate"],
        rows=rows,
        notes=notes,
        extras={"target_reached_at": reached_at, "scale": scale.name},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def _check(result: ExperimentResult) -> None:
    imbalance = result.column("load_imbalance")
    relative = result.column("relative_server_load")
    first_gain = relative[0] - relative[1]
    last_gain = relative[-2] - relative[-1]
    require(
        EXPERIMENT_ID,
        {
            f"imbalance falls more than 5x over the sweep ({imbalance[0]} -> "
            f"{imbalance[-1]})": imbalance[0] > 5 * imbalance[-1],
            f"the first doubling cuts relative load more than 3x the last one "
            f"does ({first_gain:.4f} vs {last_gain:.4f})": first_gain > 3 * last_gain,
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "load-imbalance & relative back-end load vs front-end cache size",
    run,
    order=10,
)
