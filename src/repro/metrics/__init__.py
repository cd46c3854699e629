"""Measurement utilities: the paper's max/min load-imbalance ratio,
resilience summaries, series recording, and plain-text table rendering
for the experiment harnesses."""

from repro.cluster.loadmonitor import load_imbalance
from repro.metrics.resilience import ResilienceSummary, summarize_resilience
from repro.metrics.series import SeriesRecorder, sparkline
from repro.metrics.table import format_cell, render_table

__all__ = [
    "ResilienceSummary",
    "summarize_resilience",
    "load_imbalance",
    "SeriesRecorder",
    "sparkline",
    "format_cell",
    "render_table",
]
