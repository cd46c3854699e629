"""Figures 7-8: CoT's adaptive resizing in action.

Figure 7 (expansion): a front end starts with a deliberately tiny CoT
cache (2 lines, 4 tracker entries) against a Zipfian 1.2 workload with
I_t = 1.1 and epoch 5000. The controller first discovers the
tracker:cache ratio (phase 1: tracker doubles, then dips back when the
extra history stops paying), then doubles cache+tracker until I_c ≤ I_t
(phase 2), capturing alpha_t at convergence. The paper converges at
C=512 / K=2048 with alpha_t ≈ 7.8 on its 1M-key workload.

Figure 8 (shrinking): the workload then switches to uniform; the quality
signal (alpha_c, alpha_k_c) collapses, CoT resets the ratio to 2:1 and
halves both sizes epoch over epoch down to negligible values. I_c stays
within the target where it decides: the windowed I_c of each decision
epoch is ≤ 1.085 at default scale. The warm-up epochs after a halving,
whose window restarts, read higher (up to 1.257 at default).

Both experiments run through the engine's phased cluster mode — the dist
switch of Figure 8 is one :class:`~repro.engine.spec.Phase` boundary —
and emit the epoch-by-epoch series the paper plots: cache size, tracker
size, I_c, alpha_c, alpha_t. The runs check their shapes
(:func:`check_expand`, :func:`check_shrink`) at ``default`` and
``paper`` scale only: smoke's 60k accesses end before either search does.
"""

from __future__ import annotations

from repro.core.elastic import ElasticCoTClient
from repro.engine import (
    ClusterRunner,
    Phase,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.engine import telemetry as T
from repro.engine.registry import register_experiment
from repro.engine.runners import ScenarioResult
from repro.experiments.common import CLAIM_SCALES, ExperimentResult, Scale, require
from repro.metrics.series import SeriesRecorder

__all__ = [
    "run_expand",
    "run_shrink",
    "check_expand",
    "check_shrink",
    "EXPERIMENT_ID_EXPAND",
    "EXPERIMENT_ID_SHRINK",
]

EXPERIMENT_ID_EXPAND = "fig7"
EXPERIMENT_ID_SHRINK = "fig8"

THETA = 1.2
TARGET_IMBALANCE = 1.1
EPOCH = 5000
#: the scales whose runs are long enough for both searches to complete
ELASTIC_CLAIM_SCALES = CLAIM_SCALES - {"smoke"}


def _elastic_factory(cluster, _i: int) -> ElasticCoTClient:
    return ElasticCoTClient(
        cluster,
        target_imbalance=TARGET_IMBALANCE,
        initial_cache=2,
        initial_tracker=4,
        base_epoch=EPOCH,
    )


def _run_phases(scale: Scale, phases: tuple[Phase, ...]) -> ScenarioResult:
    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(dist=f"zipf-{THETA:g}"),
        policy=PolicySpec(),
        topology=TopologySpec(num_clients=1),
        client_factory=_elastic_factory,
        phases=phases,
    )
    return ClusterRunner().run(spec)


def _history_result(
    result: ScenarioResult,
    experiment_id: str,
    title: str,
    notes: list[str],
    start_epoch: int = 0,
) -> ExperimentResult:
    recorder = SeriesRecorder()
    rows: list[list[object]] = []
    for record in result.telemetry.epoch_events:
        if record.index < start_epoch:
            continue
        row = record.as_row()
        recorder.add_point(
            record.index,
            cache=row["cache"],
            tracker=row["tracker"],
            I_c=row["I_c"],
            alpha_c=row["alpha_c"],
        )
        rows.append(
            [
                row["epoch"],
                row["cache"],
                row["tracker"],
                row["I_c"],
                row["alpha_c"],
                row["alpha_t"],
                row["decision"],
                row["phase"],
            ]
        )
    telemetry = result.telemetry
    cache = int(telemetry.gauges[T.ELASTIC_FINAL_CACHE])
    tracker = int(telemetry.gauges[T.ELASTIC_FINAL_TRACKER])
    notes = [*notes, f"final sizes: C={cache}, K={tracker}"]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=[
            "epoch", "cache", "tracker", "I_c", "alpha_c", "alpha_t",
            "decision", "phase",
        ],
        rows=rows,
        notes=notes,
        extras={
            "series": recorder,
            "final_cache": cache,
            "final_tracker": tracker,
            "alpha_target": telemetry.gauges[T.ELASTIC_ALPHA_TARGET],
        },
    )


def run_expand(scale: Scale | None = None) -> ExperimentResult:
    """Figure 7: elastic expansion from a tiny cache to the I_t answer."""
    scale = scale or Scale.default()
    result = _run_phases(scale, (Phase("expand", accesses=scale.accesses),))
    expand = _history_result(
        result,
        EXPERIMENT_ID_EXPAND,
        f"Figure 7 — elastic expansion (Zipf {THETA}, I_t={TARGET_IMBALANCE})",
        [
            f"start C=2/K=4, epoch {EPOCH}, {scale.accesses:,} accesses over "
            f"{scale.key_space:,} keys",
            "paper (1M keys): two-phase search settles at C=512/K=2048 with "
            "alpha_t ≈ 7.8",
        ],
    )
    if scale.name in ELASTIC_CLAIM_SCALES:
        check_expand(expand)
    return expand


def check_expand(result: ExperimentResult) -> None:
    """Figure 7's shape: both search phases ran, and K >= 2C throughout."""
    decisions = result.column("decision")
    narrow = [
        epoch
        for epoch, cache, tracker in zip(
            result.column("epoch"), result.column("cache"), result.column("tracker")
        )
        if tracker < 2 * cache
    ]
    require(
        EXPERIMENT_ID_EXPAND,
        {
            "phase 1 doubles the tracker": "double_tracker" in decisions,
            f"phase 2 grows the cache from C=2 (ends at C="
            f"{result.extras['final_cache']})": result.extras["final_cache"] > 2,
            f"K >= 2C at every epoch (not at {narrow})": not narrow,
            "the target is reached and alpha_t captured": "target_reached" in decisions,
        },
    )


def run_shrink(scale: Scale | None = None) -> ExperimentResult:
    """Figure 8: run expansion, switch to uniform, watch the shrink."""
    scale = scale or Scale.default()
    result = _run_phases(
        scale,
        (
            Phase("expand", accesses=scale.accesses),
            Phase("shrink", accesses=scale.accesses, dist="uniform"),
        ),
    )
    switch_epoch = result.telemetry.phases[1].start_epoch
    shrink = _history_result(
        result,
        EXPERIMENT_ID_SHRINK,
        "Figure 8 — elastic shrinking after a switch to uniform",
        [
            f"workload switched to uniform at epoch {switch_epoch}",
            "paper: ratio resets to 2:1, then cache and tracker halve down "
            "to negligible sizes without violating I_t",
        ],
        start_epoch=max(0, switch_epoch - 3),
    )
    if scale.name in ELASTIC_CLAIM_SCALES:
        check_shrink(shrink)
    return shrink


def check_shrink(result: ExperimentResult) -> None:
    """Figure 8's shape: the ratio resets and the cache halves to a quarter or less."""
    decisions = result.column("decision")
    peak, final = max(result.column("cache")), result.extras["final_cache"]
    require(
        EXPERIMENT_ID_SHRINK,
        {
            "the tracker ratio resets": "reset_ratio" in decisions,
            "the cache halves": "shrink" in decisions,
            f"the cache ends at a quarter of its peak or less (C={final} from "
            f"{peak})": final <= peak // 4,
        },
    )


register_experiment(
    EXPERIMENT_ID_EXPAND,
    "elastic expansion: tiny CoT cache grows to the I_t answer",
    run_expand,
    order=60,
)
register_experiment(
    EXPERIMENT_ID_SHRINK,
    "elastic shrinking after a workload switch to uniform",
    run_shrink,
    order=70,
)
