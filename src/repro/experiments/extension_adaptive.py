"""Extension: adaptive policy arbitration under non-stationary workloads.

Every other experiment pins one replacement policy per run; this one runs
the workloads where any fixed choice loses. Three non-stationary
scenarios, each a deterministic three-phase key stream:

* **diurnal** — a skew shift (Zipfian 1.2 → 0.8 → 1.2, the night phase
  over a rotated hot set): the day/night traffic-concentration swing;
* **scan-flood** — a Zipfian phase, then the same Zipfian interleaved
  1:1 with a sequential one-touch scan over a disjoint key range (the
  classic cache-pollution attack on recency policies), then recovery;
* **migration** — the paper's "Gangnam style" hot-set rotation
  (:class:`~repro.workloads.shift.RotatingHotSetGenerator`): the
  distribution shape is constant but the identity of the hot keys jumps
  at every phase boundary.

Each scenario replays the identical key stream through the five fixed
policies (LRU, LFU, ARC, LRU-2, CoT) and through the
:class:`~repro.policies.adaptive.AdaptiveArbiter` (built through the
engine's :class:`~repro.engine.spec.ArbitrationSpec` axis, starting from
the *worst* reasonable choice — LRU), recording hits per arbitration
epoch. The headline check is the convergence criterion from DESIGN.md
§14: within ``CONVERGENCE_EPOCHS`` epochs of every phase boundary the
arbiter's per-epoch hit value must be within ``CONVERGENCE_SLACK`` of
the best fixed policy's over the remainder of the phase.
"""

from __future__ import annotations

from typing import Any

from repro.engine import ArbitrationSpec, PolicySpec
from repro.engine.registry import register_experiment
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, Scale
from repro.policies.adaptive import AdaptiveArbiter
from repro.policies.base import CachePolicy
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.workloads.base import KeyGenerator
from repro.workloads.shift import Phase, PhasedWorkload, RotatingHotSetGenerator
from repro.workloads.zipfian import ZipfianGenerator

__all__ = ["EXPERIMENT_ID", "SCENARIOS", "run", "run_scenario"]

EXPERIMENT_ID = "ext-adaptive"

SCENARIOS = ("diurnal", "scan-flood", "migration")

#: accesses per arbitration epoch (shared by the arbiter and the
#: per-epoch hit accounting, so epoch boundaries line up exactly)
EPOCH_LENGTH = 2_048

#: epochs the arbiter is allowed to take re-converging after a shift
CONVERGENCE_EPOCHS = 3

#: the arbiter must earn >= (1 - slack) of the best fixed policy's hit
#: value over the post-convergence window of every phase
CONVERGENCE_SLACK = 0.05


class _ScanInterleaver(KeyGenerator):
    """Interleave an inner generator 1:1 with a sequential one-touch scan.

    Scan ids start at ``scan_base`` (disjoint from the inner range when
    ``scan_base >= inner.key_space``) and never repeat — every scan key
    is touched exactly once, the pure pollution signal.
    """

    name = "scan-interleave"

    def __init__(self, inner: KeyGenerator, scan_base: int, scan_span: int) -> None:
        super().__init__(scan_base + scan_span)
        self._inner = inner
        self._scan_base = scan_base
        self._next_scan = 0
        self._flip = False

    def next_key(self) -> int:
        self._flip = not self._flip
        if self._flip:
            return self._inner.next_key()
        key = self._scan_base + self._next_scan
        self._next_scan += 1
        return key

    def describe(self) -> str:
        return f"scan1:1(over={self._inner.describe()})"


def _phase_epochs(scale: Scale) -> int:
    # Larger scales get longer phases: the cache:key-space ratio is
    # constant, but at bigger key spaces the low-skew phases run at much
    # lower hit rates, so policy differences (and the arbiter's tracking
    # of them) develop over more epochs.
    if scale.name == "tiny":
        return 4
    if scale.name == "smoke":
        return 8
    return 16


def _sizing(scale: Scale) -> tuple[int, int, int]:
    """(key_space, cache_lines, tracker_lines) for one scenario."""
    key_space = scale.key_space
    cache = max(64, key_space // 64)
    return key_space, cache, 4 * cache


def _scenario_keys(name: str, scale: Scale) -> tuple[list[int], list[int]]:
    """The scenario's full key stream and its shift epochs.

    Streams are generated once per scenario and replayed byte-identically
    through every policy, so the comparison is exact.
    """
    key_space, _cache, _tracker = _sizing(scale)
    epochs = _phase_epochs(scale)
    span = epochs * EPOCH_LENGTH
    seed = scale.seed + 17
    if name == "diurnal":
        # Night traffic is both flatter (theta 0.8 vs 1.2) and comes from
        # a different population — hence the fixed half-space offset on
        # the night phase. Without the offset the day phase's hot ids
        # stay hot at night (the rank -> id map is unscrambled), and a
        # fixed LFU's carried frequency history beats every fresh-start
        # policy — no arbiter can track it.
        night = RotatingHotSetGenerator(
            ZipfianGenerator(key_space, theta=0.8, seed=seed + 1),
            offset=key_space // 2,
        )
        workload: KeyGenerator = PhasedWorkload(
            [
                Phase(ZipfianGenerator(key_space, theta=1.2, seed=seed), span),
                Phase(night, span),
                Phase(ZipfianGenerator(key_space, theta=1.2, seed=seed + 2), span),
            ]
        )
        keys = list(workload.keys(3 * span))
    elif name == "scan-flood":
        flood = _ScanInterleaver(
            ZipfianGenerator(key_space, theta=1.2, seed=seed + 1),
            scan_base=key_space,
            scan_span=span,
        )
        workload = PhasedWorkload(
            [
                Phase(ZipfianGenerator(key_space, theta=1.2, seed=seed), span),
                Phase(flood, span),
                Phase(ZipfianGenerator(key_space, theta=1.2, seed=seed + 2), span),
            ]
        )
        keys = list(workload.keys(3 * span))
    elif name == "migration":
        rotating = RotatingHotSetGenerator(
            ZipfianGenerator(key_space, theta=1.2, seed=seed)
        )
        keys = []
        for _phase in range(3):
            keys.extend(rotating.keys(span))
            rotating.rotate(key_space // 3)
    else:
        raise ExperimentError(f"unknown scenario: {name!r}")
    return keys, [epochs, 2 * epochs]


def _build_arbiter(scale: Scale) -> CachePolicy:
    """The arbiter cell, built through the engine's arbitration axis.

    Starts live on LRU — deliberately the policy most exposed to every
    scenario here — so convergence measures the arbiter, not a lucky
    initial choice.
    """
    _key_space, cache, tracker = _sizing(scale)
    spec = PolicySpec(
        name="lru",
        cache_lines=cache,
        tracker_lines=tracker,
        arbitration=ArbitrationSpec(
            epoch_length=EPOCH_LENGTH,
            sample_shift=2,
        ),
    )
    return spec.build(0)


def _drive(policy: CachePolicy, keys: list[int]) -> list[int]:
    """Replay ``keys`` through ``policy``; hits per arbitration epoch."""
    per_epoch: list[int] = []
    previous = 0
    for start in range(0, len(keys), EPOCH_LENGTH):
        policy.run_stream(keys[start : start + EPOCH_LENGTH])
        hits = policy.stats.hits
        per_epoch.append(hits - previous)
        previous = hits
    return per_epoch


def _phase_windows(
    shifts: list[int], total_epochs: int
) -> list[tuple[int, int, int]]:
    """(phase_start, window_start, phase_end) per phase."""
    starts = [0, *shifts]
    ends = [*shifts, total_epochs]
    return [
        (start, min(start + CONVERGENCE_EPOCHS, end), end)
        for start, end in zip(starts, ends)
    ]


def run_scenario(name: str, scale: Scale) -> dict[str, Any]:
    """One scenario: replay through every policy; convergence verdicts."""
    _key_space, cache, tracker = _sizing(scale)
    keys, shifts = _scenario_keys(name, scale)
    per_epoch: dict[str, list[int]] = {}
    for policy_name in POLICY_NAMES:
        policy = make_policy(policy_name, cache, tracker_capacity=tracker)
        per_epoch[policy_name] = _drive(policy, keys)
    arbiter = _build_arbiter(scale)
    per_epoch["adaptive"] = _drive(arbiter, keys)
    assert isinstance(arbiter, AdaptiveArbiter)
    total_epochs = len(per_epoch["adaptive"])
    converged: list[bool] = []
    windows = _phase_windows(shifts, total_epochs)
    for _start, window, end in windows:
        best_fixed = max(
            sum(per_epoch[p][window:end]) for p in POLICY_NAMES
        )
        arbiter_value = sum(per_epoch["adaptive"][window:end])
        converged.append(
            arbiter_value >= (1.0 - CONVERGENCE_SLACK) * best_fixed
        )
    timeline = [record.live for record in arbiter.history]
    return {
        "name": name,
        "cache": cache,
        "tracker": tracker,
        "shifts": shifts,
        "per_epoch": per_epoch,
        "windows": windows,
        "converged": converged,
        "switches": arbiter.switches,
        "regret": arbiter.regret,
        "live_timeline": timeline,
        "final_live": arbiter.live_name,
        "shadow_hit_rates": arbiter.shadow_hit_rates(),
    }


def _phase_rates(per_epoch: list[int], shifts: list[int]) -> list[float]:
    bounds = [0, *shifts, len(per_epoch)]
    rates = []
    for start, end in zip(bounds, bounds[1:]):
        accesses = (end - start) * EPOCH_LENGTH
        rates.append(sum(per_epoch[start:end]) / accesses if accesses else 0.0)
    return rates


def run(scale: Scale | None = None) -> ExperimentResult:
    """All three scenarios; raises if the arbiter misses its criterion."""
    scale = scale or Scale.default()
    rows: list[list[object]] = []
    notes: list[str] = []
    extras: dict[str, Any] = {"scenarios": {}}
    failures: list[str] = []
    for scenario in SCENARIOS:
        result = run_scenario(scenario, scale)
        extras["scenarios"][scenario] = {
            k: v for k, v in result.items() if k != "per_epoch"
        }
        shifts = result["shifts"]
        for policy_name in (*POLICY_NAMES, "adaptive"):
            series = result["per_epoch"][policy_name]
            phase_rates = _phase_rates(series, shifts)
            overall = sum(series) / (len(series) * EPOCH_LENGTH)
            rows.append(
                [
                    scenario,
                    policy_name,
                    *[f"{rate:.1%}" for rate in phase_rates],
                    f"{overall:.1%}",
                    result["switches"] if policy_name == "adaptive" else "-",
                ]
            )
        verdicts = result["converged"]
        if not all(verdicts):
            failures.append(
                f"{scenario}: converged per phase = {verdicts}"
            )
        notes.append(
            f"{scenario}: arbiter path "
            f"{' -> '.join(_compress(result['live_timeline']))}, "
            f"{result['switches']} switch(es); converged within "
            f"{CONVERGENCE_EPOCHS} epochs of every shift: {all(verdicts)}"
        )
    if failures:
        raise ExperimentError(
            "adaptive arbiter missed the convergence criterion — "
            + "; ".join(failures)
        )
    notes.append(
        f"criterion: >= {1 - CONVERGENCE_SLACK:.0%} of the best fixed "
        f"policy's hit value over each phase's post-convergence window "
        f"(phase start + {CONVERGENCE_EPOCHS} epochs onwards)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            "Extension — adaptive arbitration on non-stationary workloads "
            f"(3 scenarios x {len(POLICY_NAMES)} fixed policies + arbiter)"
        ),
        headers=[
            "scenario", "policy", "phase1", "phase2", "phase3",
            "overall", "switches",
        ],
        rows=rows,
        notes=notes,
        extras=extras,
    )


def _compress(timeline: list[str]) -> list[str]:
    """Collapse consecutive repeats: [a,a,b,b,a] -> [a,b,a]."""
    out: list[str] = []
    for name in timeline:
        if not out or out[-1] != name:
            out.append(name)
    return out or ["-"]


register_experiment(
    EXPERIMENT_ID,
    "adaptive policy arbitration vs fixed policies on non-stationary workloads",
    run,
    order=125,
)
