"""Measurement utilities: imbalance metrics, resilience summaries, series
recording, and plain-text table rendering for the experiment harnesses."""

from repro.metrics.imbalance import (
    ImbalanceSummary,
    coefficient_of_variation,
    load_imbalance,
    peak_to_mean,
    relative_load,
    summarize_loads,
)
from repro.metrics.resilience import ResilienceSummary, summarize_resilience
from repro.metrics.series import SeriesRecorder, sparkline
from repro.metrics.table import format_cell, render_table

__all__ = [
    "ResilienceSummary",
    "summarize_resilience",
    "ImbalanceSummary",
    "coefficient_of_variation",
    "load_imbalance",
    "peak_to_mean",
    "relative_load",
    "summarize_loads",
    "SeriesRecorder",
    "sparkline",
    "format_cell",
    "render_table",
]
