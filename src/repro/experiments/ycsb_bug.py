"""The YCSB ScrambledZipfian bug (paper Section 1, contribution 5).

"We found a bug in YCSB's ScrambledZipfian workload generator. This
generator generates workloads that are significantly less-skewed than the
promised Zipfian distribution."

This experiment draws the same number of keys from the honest
:class:`ZipfianGenerator` and from the bug-faithful
:class:`ScrambledZipfianGenerator` at several requested skews, then
compares (a) the empirically fitted Zipf exponent and (b) the access mass
captured by the hottest keys. The scrambled generator's head mass barely
moves with the requested skew — the bug in numbers.
"""

from __future__ import annotations

from repro.engine.registry import register_experiment
from repro.experiments.common import CLAIM_SCALES, ExperimentResult, Scale, require
from repro.workloads.analytical import estimate_zipf_exponent, head_mass
from repro.workloads.scrambled import ScrambledZipfianGenerator
from repro.workloads.zipfian import ZipfianGenerator

__all__ = ["run", "EXPERIMENT_ID"]

EXPERIMENT_ID = "ycsb-bug"
REQUESTED_SKEWS = (0.9, 0.99, 1.2)


def run(scale: Scale | None = None) -> ExperimentResult:
    """Quantify the scrambled generator's skew loss."""
    scale = scale or Scale.default()
    top = max(10, scale.key_space // 1000)
    rows: list[list[object]] = []
    for theta in REQUESTED_SKEWS:
        honest = ZipfianGenerator(scale.key_space, theta=theta, seed=scale.seed)
        scrambled = ScrambledZipfianGenerator(
            scale.key_space, requested_theta=theta, seed=scale.seed
        )
        honest_keys = list(honest.keys(scale.accesses))
        scrambled_keys = list(scrambled.keys(scale.accesses))
        rows.append(
            [
                f"requested s={theta:g}",
                round(estimate_zipf_exponent(honest_keys, max_rank=1000), 3),
                round(estimate_zipf_exponent(scrambled_keys, max_rank=1000), 3),
                round(head_mass(honest_keys, top) * 100, 2),
                round(head_mass(scrambled_keys, top) * 100, 2),
            ]
        )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="YCSB ScrambledZipfian bug — promised vs delivered skew",
        headers=[
            "workload",
            "fitted_s_zipfian",
            "fitted_s_scrambled",
            f"top{top}_mass_zipfian_%",
            f"top{top}_mass_scrambled_%",
        ],
        rows=rows,
        notes=[
            f"{scale.accesses:,} draws over {scale.key_space:,} keys; "
            "exponent fitted over the first 1000 ranks",
            "the scrambled generator ignores the requested constant (fixed "
            "0.99 over a 10-billion-item domain) and its FNV scramble folds "
            "the tail uniformly onto every key, crushing the head mass",
        ],
        extras={"scale": scale.name},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def _check(result: ExperimentResult) -> None:
    honest = result.column("fitted_s_zipfian")
    scrambled = result.column("fitted_s_scrambled")
    honest_span = max(honest) - min(honest)
    scrambled_span = max(scrambled) - min(scrambled)
    heads = [(row[3], row[4]) for row in result.rows]
    require(
        EXPERIMENT_ID,
        {
            f"honest fits rise with the request ({honest})": honest == sorted(honest),
            f"honest fits span over 0.2 ({honest_span:.3f})": honest_span > 0.2,
            f"scrambled fits span under 0.01 ({scrambled_span:.3f})": (
                scrambled_span < 0.01
            ),
            f"scrambled head mass below honest on every row ({heads})": all(
                scrambled_head < honest_head for honest_head, scrambled_head in heads
            ),
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "YCSB ScrambledZipfian bug: promised vs delivered skew",
    run,
    order=90,
)
