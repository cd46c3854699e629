"""Prometheus text-format export of engine telemetry.

Renders :class:`~repro.engine.telemetry.TelemetrySnapshot`\\ s in the
Prometheus exposition format (text/plain version 0.0.4): counters as
``*_total`` counter families, gauges as gauges, per-shard load families
with a ``shard`` label, and every snapshot histogram as a full
``_bucket``/``_sum``/``_count`` histogram family. Multiple snapshots
(one per run of a sweep) export as one page with a ``run`` label.

Also here:

* :func:`parse_prometheus` — a strict parser for the subset this module
  emits, used by the round-trip conformance tests (and handy for
  post-processing metric dumps without a Prometheus server);
* :class:`SnapshotCollector` — subscribes to the engine's snapshot
  stream (:func:`repro.engine.telemetry.add_snapshot_listener`) so the
  experiment CLI's ``--metrics-out`` can capture every run's telemetry
  without touching a single experiment module. Collection is strictly
  read-only: attaching a collector never changes experiment output
  (pinned by the golden tests).
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Mapping

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.telemetry import TelemetrySnapshot

__all__ = [
    "PrometheusExporter",
    "SnapshotCollector",
    "parse_prometheus",
    "render_prometheus",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_LABEL_BLOCK = re.compile(
    r'^(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)?,?$'
)


def _metric_name(raw: str, namespace: str) -> str:
    """``policy.hits`` → ``cot_policy_hits`` (Prometheus-legal)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", raw)
    name = f"{namespace}_{cleaned}" if namespace else cleaned
    if not _NAME_OK.match(name):
        raise ExperimentError(f"cannot form a legal metric name from {raw!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Canonical sample formatting: integers bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


class _Family:
    """One metric family: HELP/TYPE header plus its sample series."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: list[tuple[str, dict[str, str], float]] = []

    def add(self, suffix: str, labels: Mapping[str, str], value: float) -> None:
        self.samples.append((suffix, dict(labels), value))

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            lines.append(
                f"{self.name}{suffix}{_labels_text(labels)} "
                f"{_format_value(value)}"
            )
        return "\n".join(lines)


class PrometheusExporter:
    """Accumulates snapshots and renders one exposition-format page.

    ``add(snapshot)`` ingests one run's telemetry; when more than one
    snapshot is added, each carries a ``run`` label (plus any explicit
    labels passed to ``add``). ``render()`` emits families in first-seen
    order with HELP/TYPE declared exactly once per family.
    """

    def __init__(self, namespace: str = "cot") -> None:
        self.namespace = namespace
        self._families: dict[str, _Family] = {}
        self._runs = 0

    # ---------------------------------------------------------------- intake

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help_text)
        elif family.kind != kind:
            raise ExperimentError(
                f"metric {name} registered as {family.kind} and {kind}"
            )
        return family

    def add(self, snapshot: "TelemetrySnapshot", **labels: str) -> None:
        """Ingest one snapshot's counters/gauges/loads/histograms."""
        from repro.engine.telemetry import BY_NAME  # here: telemetry imports obs

        base = dict(labels)
        base.setdefault("run", str(self._runs))
        self._runs += 1
        namespace = self.namespace

        def family(raw: str, kind: str, suffix: str = "") -> _Family:
            # HELP is the catalogue row's; an extension's own name says its kind.
            text = BY_NAME[raw].help if raw in BY_NAME else f"{kind} {raw!r}"
            return self._family(_metric_name(raw, namespace) + suffix, kind, text)

        for raw, value in sorted(snapshot.counters.items()):
            family(raw, "counter", "_total").add("", base, value)

        for raw, value in sorted(snapshot.gauges.items()):
            family(raw, "gauge").add("", base, value)

        loads = self._family(
            _metric_name("shard.lookups", namespace) + "_total",
            "counter",
            "lifetime lookups routed to each back-end shard",
        )
        for shard, value in sorted(snapshot.shard_loads.items()):
            loads.add("", {**base, "shard": shard}, value)

        epoch_loads = self._family(
            _metric_name("shard.epoch_lookups", namespace),
            "gauge",
            "lookups per shard in the last epoch window",
        )
        for shard, value in sorted(snapshot.epoch_shard_loads.items()):
            epoch_loads.add("", {**base, "shard": shard}, value)

        scalars = [
            ("run.runtime_seconds", snapshot.runtime, "simulated run time"),
            ("latency.mean_seconds", snapshot.mean_latency, "mean request latency"),
            ("latency.p50_seconds", snapshot.p50_latency, "median request latency"),
            ("latency.p99_seconds", snapshot.p99_latency, "p99 request latency"),
            (
                "latency.fallback_seconds_total",
                snapshot.fallback_latency,
                "accounted extra latency of storage-fallback reads",
            ),
            (
                "run.epoch_events",
                float(len(snapshot.epoch_events)),
                "elastic epochs closed during the run",
            ),
            (
                "run.phases",
                float(len(snapshot.phases)),
                "fault-schedule phases completed",
            ),
        ]
        for raw, value, help_text in scalars:
            if value is None:  # a scalar this run does not measure
                continue
            name = _metric_name(raw, namespace)
            self._family(name, "gauge", help_text).add("", base, value)

        for raw, histogram in sorted(snapshot.histograms.items()):
            # The unit is the row's: only a distribution of seconds says so.
            timed = raw not in BY_NAME or BY_NAME[raw].unit == "seconds"
            buckets = family(raw, "histogram", "_seconds" if timed else "")
            for bound, cumulative in histogram.cumulative_buckets():
                buckets.add(
                    "_bucket",
                    {**base, "le": _format_value(bound)},
                    cumulative,
                )
            buckets.add("_sum", base, histogram.total)
            buckets.add("_count", base, histogram.count)

    # ---------------------------------------------------------------- output

    def render(self) -> str:
        """The full exposition-format page (trailing newline included)."""
        if not self._families:
            return "# (no snapshots collected)\n"
        return "\n".join(
            family.render() for family in self._families.values()
        ) + "\n"


def render_prometheus(
    snapshot: "TelemetrySnapshot", namespace: str = "cot", **labels: str
) -> str:
    """One-shot export of a single snapshot."""
    exporter = PrometheusExporter(namespace=namespace)
    exporter.add(snapshot, **labels)
    return exporter.render()


# ---------------------------------------------------------------------------
# parsing (round-trip conformance)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition-format text into ``{series: [(labels, value)]}``.

    Strict about everything this package emits: TYPE must precede a
    family's samples, names must be legal, label syntax must parse, and
    values must be floats (``+Inf``/``-Inf``/``NaN`` allowed). Histogram
    sample names keep their ``_bucket``/``_sum``/``_count`` suffixes.
    Raises :class:`~repro.errors.ExperimentError` on any malformed line.
    """
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    typed: dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in {"HELP", "TYPE"}:
                if not _NAME_OK.match(parts[2]):
                    raise ExperimentError(
                        f"line {line_number}: bad metric name {parts[2]!r}"
                    )
                if parts[1] == "TYPE":
                    typed[parts[2]] = parts[3] if len(parts) > 3 else ""
                continue
            continue  # free-form comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ExperimentError(f"line {line_number}: malformed sample {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and typed.get(trimmed) == "histogram":
                base = trimmed
                break
        if base not in typed:
            raise ExperimentError(
                f"line {line_number}: sample {name!r} has no TYPE declaration"
            )
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            if not _LABEL_BLOCK.match(raw_labels):
                raise ExperimentError(
                    f"line {line_number}: malformed labels {raw_labels!r}"
                )
            for pair in _LABEL_PAIR.finditer(raw_labels):
                labels[pair.group(1)] = (
                    pair.group(2)
                    .replace(r"\"", '"')
                    .replace(r"\n", "\n")
                    .replace(r"\\", "\\")
                )
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ExperimentError(
                f"line {line_number}: bad value {match.group('value')!r}"
            ) from None
        series.setdefault(name, []).append((labels, value))
    return series


# ---------------------------------------------------------------------------
# engine hookup


class SnapshotCollector:
    """Collects every :class:`TelemetrySnapshot` the engine freezes.

    Use as a context manager around any number of experiment runs::

        with SnapshotCollector() as collector:
            get_experiment("fig4").run(Scale.smoke())
        Path("metrics.prom").write_text(collector.render())

    The collector only *reads* frozen snapshots; attaching one cannot
    perturb a run (the golden tests pin this).
    """

    def __init__(self, namespace: str = "cot") -> None:
        self.namespace = namespace
        self.snapshots: list["TelemetrySnapshot"] = []
        self._installed = False

    def __call__(self, snapshot: "TelemetrySnapshot") -> None:
        self.snapshots.append(snapshot)

    def install(self) -> "SnapshotCollector":
        from repro.engine import telemetry as _telemetry

        if not self._installed:
            _telemetry.add_snapshot_listener(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        from repro.engine import telemetry as _telemetry

        if self._installed:
            _telemetry.remove_snapshot_listener(self)
            self._installed = False

    def __enter__(self) -> "SnapshotCollector":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def render(self) -> str:
        """Exposition-format page covering every collected snapshot."""
        exporter = PrometheusExporter(namespace=self.namespace)
        for snapshot in self.snapshots:
            exporter.add(snapshot)
        return exporter.render()
