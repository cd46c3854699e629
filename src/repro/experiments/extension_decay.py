"""Extension experiment: does the half-life decay actually help?

Algorithm 3's Case 2 *triggers* a decay when tracked-but-not-cached keys
outperform cached keys (a rotating hot set), but the paper explicitly
defers the decay mechanism to cited work and does not evaluate it. This
extension closes that gap: a Zipfian hot set is rotated every ``period``
accesses (the "#miami → #ny" trend change), and CoT is run with decay
disabled, half-life decay, and continuous exponential decay.

The rotation/decay/trigger schedule rides the engine's per-access
:class:`~repro.engine.spec.StreamHooks` (the instrumented policy-stream
mode). Metric: lifetime hit rate. Without decay, stale hotness
accumulated by old trends keeps dead keys in the cache long after
rotation; decay forgets them and re-converges faster.
"""

from __future__ import annotations

from repro.core.cache import CoTCache
from repro.core.decay import DecayPolicy, ExponentialDecay, HalfLifeDecay, NoDecay
from repro.engine import (
    PolicySpec,
    PolicyStreamRunner,
    ScenarioSpec,
    StreamHooks,
    WorkloadSpec,
)
from repro.engine.registry import register_experiment
from repro.experiments.common import CLAIM_SCALES, ExperimentResult, Scale, require
from repro.workloads.shift import RotatingHotSetGenerator
from repro.workloads.zipfian import ZipfianGenerator

__all__ = ["run", "EXPERIMENT_ID"]

EXPERIMENT_ID = "ext-decay"
THETA = 1.2
CACHE_LINES = 64
TRACKER_LINES = 256


def _run_variant(
    decay: DecayPolicy,
    scale: Scale,
    rotations: int,
    decay_every: int,
) -> tuple[float, float]:
    """Run one decay variant; returns (hit_rate, post-rotation hit_rate)."""
    cache = CoTCache(CACHE_LINES, tracker_capacity=TRACKER_LINES)
    generator = RotatingHotSetGenerator(
        ZipfianGenerator(scale.key_space, theta=THETA, seed=scale.seed)
    )
    period = scale.accesses // (rotations + 1)
    window = {"hits": 0, "accesses": 0}

    def before(i: int) -> None:
        if i > 0 and i % period == 0:
            generator.rotate(scale.key_space // 3)

    def after(i: int, _key, hit: bool) -> None:
        # The interesting window: right after each rotation, how quickly
        # does the cache recover?
        phase_position = i % period
        if i >= period and phase_position < period // 4:
            window["accesses"] += 1
            window["hits"] += int(hit)
        if decay_every and i % decay_every == 0 and i > 0:
            decay.on_epoch(cache)
        # Emulate the controller's Case-2 trigger: tracked keys hotter
        # than cached ones right after rotation.
        if i > 0 and i % period == period // 20:
            decay.on_trigger(cache)

    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(generator_factory=lambda _i: generator),
        policy=PolicySpec(factory=lambda _i: cache),
        hooks=StreamHooks(before=before, after=after),
    )
    PolicyStreamRunner().run(spec)
    post = window["hits"] / window["accesses"] if window["accesses"] else 0.0
    return cache.stats.hit_rate, post


def run(scale: Scale | None = None, rotations: int = 4) -> ExperimentResult:
    """Compare decay policies under a rotating hot set."""
    scale = scale or Scale.default()
    epoch = max(1000, scale.accesses // 200)
    variants: list[tuple[str, DecayPolicy, int]] = [
        ("none", NoDecay(), 0),
        ("half_life", HalfLifeDecay(), 0),
        ("exponential", ExponentialDecay(rate=0.95), epoch),
    ]
    rows: list[list[object]] = []
    for name, policy, decay_every in variants:
        overall, post = _run_variant(policy, scale, rotations, decay_every)
        rows.append(
            [name, round(overall * 100, 2), round(post * 100, 2)]
        )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Extension — decay policies under hot-set rotation",
        headers=["decay", "hit_rate_%", "post_rotation_hit_rate_%"],
        rows=rows,
        notes=[
            f"Zipf {THETA} hot set rotated {rotations}× over "
            f"{scale.accesses:,} accesses; C={CACHE_LINES}, K={TRACKER_LINES}",
            "the paper triggers decay (Algorithm 3 Case 2) but defers the "
            "mechanism; this extension quantifies it",
        ],
        extras={"scale": scale.name},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def _check(result: ExperimentResult) -> None:
    rates = {row[0]: (row[1], row[2]) for row in result.rows}
    none, none_post = rates["none"]
    half, half_post = rates["half_life"]
    exponential, exponential_post = rates["exponential"]
    best_post = max(half_post, exponential_post)
    require(
        EXPERIMENT_ID,
        {
            f"half-life decay keeps the hit rate ({half} vs {none})": half >= none,
            f"exponential decay keeps the hit rate ({exponential} vs {none})": (
                exponential >= none
            ),
            f"decay recovers faster after a rotation ({best_post} vs "
            f"{none_post})": best_post > none_post,
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "decay policies (none/half-life/exponential) under hot-set rotation",
    run,
    order=110,
)
