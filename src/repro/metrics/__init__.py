"""Measurement utilities: the paper's max/min load-imbalance ratio,
series recording, and plain-text table rendering for the experiment
harnesses."""

from repro.cluster.loadmonitor import load_imbalance
from repro.metrics.series import SeriesRecorder, sparkline
from repro.metrics.table import format_cell, render_table

__all__ = [
    "load_imbalance",
    "SeriesRecorder",
    "sparkline",
    "format_cell",
    "render_table",
]
