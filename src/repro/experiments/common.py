"""Shared infrastructure for the experiment harnesses.

Every table and figure in the paper's evaluation has a module in this
package that regenerates it. All of them:

* accept a :class:`Scale` (``smoke`` for CI/benchmarks, ``default`` for
  minutes-scale runs, ``paper`` for the full 1M-key / 10M-access setup);
* build :class:`~repro.engine.spec.ScenarioSpec`s and execute them
  through the engine's runners (:mod:`repro.engine.runners`);
* return an :class:`ExperimentResult` carrying the same rows/series the
  paper reports, renderable as an aligned text table;
* check the paper's shapes on those rows at the scales EXPERIMENTS.md
  states them (:data:`CLAIM_SCALES`), raising
  :class:`~repro.errors.ExperimentError` through :func:`require` on a
  miss — so a golden test or the CLI fails where a shape stops holding;
* register themselves in the spec registry (:mod:`repro.engine.registry`),
  which is how the CLI (``python -m repro.experiments``) resolves them.

``Scale``/``make_generator``/``STREAM_CHUNK`` live in :mod:`repro.engine`
now (the engine owns sizing and drive mechanics); they are re-exported
here because experiment modules are their heaviest consumers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.runners import STREAM_CHUNK
from repro.engine.spec import Scale, make_generator
from repro.errors import ExperimentError
from repro.metrics.table import render_table

__all__ = [
    "Scale",
    "ExperimentResult",
    "make_generator",
    "STREAM_CHUNK",
    "mean_confidence",
    "require",
    "CLAIM_SCALES",
    "TRACKER_RATIOS",
]

#: The CLI's presets, where EXPERIMENTS.md states the paper's shapes and
#: the experiments check them. Unit-test sizings (``tiny``) sit below the
#: sample sizes some shapes need, so they only exercise the code.
CLAIM_SCALES = frozenset({"smoke", "default", "paper"})

#: The paper's per-workload tracker:cache ratios (Section 5.2): high skew
#: needs less history to separate hot from cold.
TRACKER_RATIOS: dict[str, int] = {
    "zipf-0.9": 16,
    "zipf-0.99": 8,
    "zipf-1.2": 4,
    "zipf-1.5": 4,
    "uniform": 4,
}


@dataclass
class ExperimentResult:
    """Rows + metadata for one regenerated table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Aligned text table plus notes, ready to print."""
        parts = [render_table(self.headers, self.rows, title=self.title)]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def require(experiment_id: str, claims: dict[str, bool]) -> None:
    """Raise :class:`ExperimentError` naming every claim that does not hold."""
    missed = [claim for claim, holds in claims.items() if not holds]
    if missed:
        raise ExperimentError(f"{experiment_id} does not hold: " + "; ".join(missed))


def mean_confidence(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% confidence half-width (normal approximation).

    Matches the paper's "average overall running time with 95% confidence
    intervals" reporting for Figures 5-6.
    """
    if not values:
        raise ExperimentError("no values to summarize")
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    half_width = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half_width
