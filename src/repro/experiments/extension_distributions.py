"""Extension experiment: hit rates beyond the Zipfian family.

Section 3's workload assumptions note that "key hotness can follow
different distributions such as Gaussian or different variations of
Zipfian"; the paper evaluates only Zipfian. This extension runs the
Figure 4 comparison on hotspot, Gaussian, and skewed-latest workloads to
check that CoT's tracker-filter advantage is not a Zipf artifact:

* **hotspot** — a hard hotness cliff (the tracker's easiest case);
* **gaussian** — smooth hotness without a heavy tail;
* **latest** — recency-defined hotness (LRU's home turf, CoT's hardest).

The bespoke generators plug into the engine through
``WorkloadSpec.generator_factory``; the drifting-latest variant uses
per-access :class:`~repro.engine.spec.StreamHooks` for its insert/decay
schedule.
"""

from __future__ import annotations

from repro.engine import (
    PolicySpec,
    PolicyStreamRunner,
    ScenarioSpec,
    StreamHooks,
    WorkloadSpec,
)
from repro.engine.registry import register_experiment
from repro.errors import ExperimentError
from repro.experiments.common import CLAIM_SCALES, ExperimentResult, Scale, require
from repro.policies.registry import POLICY_NAMES
from repro.workloads.base import KeyGenerator
from repro.workloads.gaussian import GaussianGenerator
from repro.workloads.hotspot import HotspotGenerator
from repro.workloads.latest import SkewedLatestGenerator

__all__ = ["run", "EXPERIMENT_ID", "DISTRIBUTIONS"]

EXPERIMENT_ID = "ext-dists"
DISTRIBUTIONS = ("hotspot", "gaussian", "latest")
CACHE_LINES = 64
RATIO = 8


def _build(name: str, scale: Scale) -> KeyGenerator:
    if name == "hotspot":
        return HotspotGenerator(
            scale.key_space,
            hot_set_fraction=0.002,
            hot_opn_fraction=0.9,
            seed=scale.seed,
        )
    if name == "gaussian":
        return GaussianGenerator(
            scale.key_space, sigma=scale.key_space * 0.002, seed=scale.seed
        )
    if name == "latest":
        return SkewedLatestGenerator(scale.key_space, theta=0.99, seed=scale.seed)
    raise ExperimentError(f"unknown distribution: {name!r}")


def _run_latest_with_drift(policy, scale: Scale, decay=None) -> float:
    """Skewed-latest with continuous insertions: the hot spot crawls.

    One simulated insert per ~0.2% of accesses keeps the hottest key
    moving — the recency-defined workload that penalizes pure frequency
    tracking and rewards policies that can retire old trends. ``decay``
    (a :class:`~repro.core.decay.DecayPolicy`) is applied per drift step
    when given — the configuration the ``cot+decay`` column measures.
    """
    generator = _build("latest", scale)
    drift_every = max(1, scale.accesses // (scale.key_space // 200 + 1))

    def before(i: int) -> None:
        if i % drift_every == 0 and i > 0:
            generator.advance()
            if decay is not None:
                decay.on_epoch(policy)

    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(generator_factory=lambda _i: generator),
        policy=PolicySpec(factory=lambda _i: policy),
        hooks=StreamHooks(before=before),
    )
    return PolicyStreamRunner().run(spec).telemetry.hit_rate


def _run_stream(policy_spec: PolicySpec, dist: str, scale: Scale) -> float:
    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(generator_factory=lambda _i: _build(dist, scale)),
        policy=policy_spec,
    )
    return PolicyStreamRunner().run(spec).telemetry.hit_rate


def run(scale: Scale | None = None, cache_lines: int = CACHE_LINES) -> ExperimentResult:
    """Hit rates of every policy under the non-Zipfian distributions."""
    from repro.core.decay import ExponentialDecay
    from repro.policies.registry import make_policy

    scale = scale or Scale.default()
    rows: list[list[object]] = []
    for dist in DISTRIBUTIONS:
        row: list[object] = [dist]
        for name in POLICY_NAMES:
            if dist == "latest":
                policy = make_policy(
                    name, cache_lines, tracker_capacity=RATIO * cache_lines
                )
                hit_rate = _run_latest_with_drift(policy, scale)
            else:
                hit_rate = _run_stream(
                    PolicySpec(
                        name=name,
                        cache_lines=cache_lines,
                        tracker_lines=RATIO * cache_lines,
                    ),
                    dist,
                    scale,
                )
            row.append(round(hit_rate * 100, 2))
        # The extension column: CoT with continuous exponential decay,
        # retiring stale hotness as the hot spot drifts.
        if dist == "latest":
            policy = make_policy(
                "cot", cache_lines, tracker_capacity=RATIO * cache_lines
            )
            hit_rate = _run_latest_with_drift(
                policy, scale, decay=ExponentialDecay(rate=0.7)
            )
            row.append(round(hit_rate * 100, 2))
        else:
            row.append("=cot")
        rows.append(row)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Extension — hit rate (%) on non-Zipfian workloads, C={cache_lines}",
        headers=["dist", *POLICY_NAMES, "cot+decay"],
        rows=rows,
        notes=[
            f"{scale.accesses:,} accesses over {scale.key_space:,} keys; "
            f"tracker/history = {RATIO}:1",
            "hotspot: sharp hotness cliff; gaussian: smooth concentration; "
            "latest: drifting recency-defined hotness (the frequency-"
            "tracker's hardest case — old trends must be retired)",
        ],
        extras={"scale": scale.name, "cache_lines": cache_lines},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def _check(result: ExperimentResult) -> None:
    rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    gaussian, latest = rows["gaussian"], rows["latest"]
    runner_up = max(gaussian[name] for name in POLICY_NAMES if name != "cot")
    require(
        EXPERIMENT_ID,
        {
            f"CoT is the best policy on gaussian ({gaussian['cot']} vs "
            f"{runner_up})": gaussian["cot"] > runner_up,
            f"decay lifts CoT more than 5 points on latest ({latest['cot+decay']} "
            f"vs {latest['cot']})": latest["cot+decay"] > latest["cot"] + 5,
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "hit rates on non-Zipfian workloads (hotspot/gaussian/latest)",
    run,
    order=120,
)
