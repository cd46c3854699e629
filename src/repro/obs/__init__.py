"""Observability layer: tracing, histograms, export.

The production-shaped lens over the engine's telemetry (DESIGN.md §9)::

    Tracer ──▶ stage-tiled traces ──▶ slow-request exemplars (render_trace)
    LatencyHistogram ──▶ exact cross-client merge ──▶ TelemetrySnapshot
    TelemetrySnapshot ──▶ PrometheusExporter ──▶ metrics page (--metrics-out)

Everything here is strictly additive: attaching a tracer at sample rate
0 or a :class:`SnapshotCollector` to a run leaves experiment output
byte-identical (``tests/test_golden_outputs.py`` +
``tests/test_obs.py`` pin this).
"""

from repro.obs.hist import LatencyHistogram
from repro.obs.trace import Span, Trace, Tracer, render_trace
from repro.obs.export import (
    PrometheusExporter,
    SnapshotCollector,
    parse_prometheus,
    render_prometheus,
)

__all__ = [
    "LatencyHistogram",
    "PrometheusExporter",
    "SnapshotCollector",
    "Span",
    "Trace",
    "Tracer",
    "parse_prometheus",
    "render_prometheus",
    "render_trace",
]
