"""Golden-file regression tests for the scenario engine.

These pin the rendered smoke-scale output of ten experiments
byte-for-byte: fig4 (policy-stream path), ext-adaptive (``run_stream``
driven directly: the arbiter and its five shadow policies, all on the
shared heap and tracker), fig6 (simulator path, one client),
ext-edge-rtt (simulator path, several clients: the cross-client FCFS
event order), and the cluster path in each order — fig3 (sequential),
ext-hotkey (sequential with the router tick), table2 (round-robin with
warm-up), fig7 / fig8 (phased, elastic front ends) and ext-chaos (phased
under faults, with the value oracle).  Together they cover all three
runners behind the engine, so any drift in seeding, drive order, or
rendering shows up as a diff against ``tests/golden/``.

To regenerate after an intentional change::

    PYTHONPATH=src python -m repro.experiments <id> --scale smoke

and paste the rendered tables (without the trailing timing line) into
the matching ``tests/golden/<id>.smoke.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.experiments  # noqa: F401  (imports register every experiment)
from repro.engine import Scale, get_experiment, parallel_workers

GOLDEN_DIR = Path(__file__).parent / "golden"


def rendered_output(experiment_id: str) -> str:
    # Rendered the way the CLI renders it, fanned out over the cpu-aware
    # default worker count. (The suite used to get this by accident, from
    # the worker count an earlier CLI test leaked; sequentially fig4,
    # fig6, table2 and ext-edge-rtt cost about a minute more on two cores.)
    with parallel_workers(None):
        outcome = get_experiment(experiment_id).run(scale=Scale.smoke())
    results = outcome if isinstance(outcome, list) else [outcome]
    return "\n\n".join(result.render() for result in results) + "\n"


@pytest.mark.parametrize(
    "experiment_id",
    [
        "fig4", "fig6", "table2", "ext-edge-rtt",
        "fig3", "ext-hotkey", "fig7", "fig8", "ext-chaos", "ext-adaptive",
    ],
)
def test_smoke_output_matches_golden(experiment_id):
    golden = (GOLDEN_DIR / f"{experiment_id}.smoke.txt").read_text(
        encoding="utf-8"
    )
    assert rendered_output(experiment_id) == golden
