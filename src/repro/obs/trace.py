"""Sampling request tracer: cheap structured spans for slow-request forensics.

The paper motivates CoT with tail latency, and a p99 scalar cannot tell
you *where* a slow request spent its time — front-end miss, ring route,
shard queueing, a retry burst, or the storage fallback. A
:class:`Tracer` samples a deterministic fraction of requests and records
a :class:`Span` per stage of each sampled request — on the live path
the stages tile the request, each starting where the last ended, so
their durations sum to the root's; the slowest completed traces are
retained as exemplars and render as an indented text tree
(:func:`render_trace`).

Design constraints, in order:

1. **zero cost when off** — at ``sample_rate`` 0 the hot path pays one
   attribute read and one comparison; experiment outputs are
   byte-identical with tracing attached (pinned by the golden tests);
2. **cheap when on** — spans are flat records in a list (parent links by
   index, no per-span objects beyond ``__slots__``), and only sampled
   requests allocate anything;
3. **clock-agnostic** — the live cluster path uses ``perf_counter``
   wall time, the discrete-event path passes explicit simulated
   timestamps; both produce the same span trees.

Sampling is deterministic (an error-diffusion accumulator, not an RNG):
rate 0.01 traces exactly every 100th request, which keeps traced runs
reproducible and the overhead gate stable.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["Span", "Trace", "Tracer", "render_trace"]


class Span:
    """One timed section of a traced request (flat record, tree by index)."""

    __slots__ = ("name", "start", "end", "parent", "meta")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = math.nan,
        parent: int = -1,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.meta = meta

    @property
    def duration(self) -> float:
        """Span length in seconds (NaN while still open)."""
        return self.end - self.start

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.6g}s)"


class Trace:
    """The span tree of one sampled request.

    ``stage(name)`` marks where the next stage of the request starts
    (live path): it closes the stage that was open and opens this one
    under the root, so the stages tile the request — each starts where
    the last ended and the last ends with the root. ``add_span(name,
    start, end)`` records a closed span with explicit timestamps
    (simulation path).
    """

    __slots__ = ("name", "spans", "_clock", "meta")

    def __init__(
        self, name: str, clock: Callable[[], float], at: float | None = None
    ) -> None:
        self.name = name
        self._clock = clock
        start = clock() if at is None else at
        self.spans: list[Span] = [Span(name, start)]
        self.meta: dict[str, Any] = {}

    # ------------------------------------------------------------- recording

    def stage(self, name: str, **meta: Any) -> None:
        """Close the open stage and open ``name`` under the root, at one
        instant; the first stage starts with the root, so nothing is untiled."""
        spans = self.spans
        last = spans[-1]
        if last is spans[0]:
            now = last.start
        else:
            now = self._clock()
            if math.isnan(last.end):
                last.end = now
        spans.append(Span(name, now, parent=0, meta=meta or None))

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = 0,
        **meta: Any,
    ) -> int:
        """Record one already-closed span with explicit timestamps."""
        index = len(self.spans)
        self.spans.append(Span(name, start, end, parent=parent, meta=meta or None))
        return index

    def note(self, key: str, value: Any) -> None:
        """Attach request-level metadata (outcome, key, retry count …)."""
        self.meta[key] = value

    def finish(self, at: float | None = None) -> None:
        """Close the root span and the stage still open, at one instant."""
        end = self._clock() if at is None else at
        for span in (self.spans[0], self.spans[-1]):
            if math.isnan(span.end):
                span.end = end

    # ------------------------------------------------------------ inspection

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def duration(self) -> float:
        """Total request time (root span length)."""
        return self.spans[0].duration

    def children(self, index: int) -> Iterator[int]:
        """Indices of the direct children of span ``index``, in order."""
        for i, span in enumerate(self.spans):
            if span.parent == index and i != index:
                yield i

    def find(self, name: str) -> list[Span]:
        """Every span with the given name (test/assertion helper)."""
        return [span for span in self.spans if span.name == name]


class Tracer:
    """Deterministic sampling tracer with a slowest-trace exemplar store.

    Parameters
    ----------
    sample_rate:
        fraction of requests to trace, in [0, 1]. 0 disables tracing
        entirely (``start`` returns ``None`` after one comparison); the
        ``credit`` accumulator makes sampling deterministic: rate ``1/n``
        traces exactly every ``n``-th request.
    clock:
        timestamp source for live spans; simulation callers pass explicit
        ``at=``/``finish(at=)`` timestamps instead.
    max_exemplars:
        how many of the slowest completed traces to retain.
    """

    __slots__ = (
        "sample_rate",
        "_clock",
        "credit",
        "_max_exemplars",
        "_exemplars",
        "requests_seen",
        "traces_started",
        "traces_finished",
    )

    def __init__(
        self,
        sample_rate: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
        max_exemplars: int = 8,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError("sample_rate must be in [0, 1]")
        if max_exemplars < 1:
            raise ConfigurationError("max_exemplars must be >= 1")
        self.sample_rate = sample_rate
        self._clock = clock
        #: sampling credit: each request adds ``sample_rate``; crossing 1.0
        #: samples that request. Public so hot paths can inline the gate
        #: (``credit += rate; if credit >= 1.0: start_sampled(...)``) and
        #: pay zero method calls on unsampled requests.
        self.credit = 0.0
        self._max_exemplars = max_exemplars
        #: (duration, insertion-order, trace) kept sorted slowest-first
        self._exemplars: list[tuple[float, int, Trace]] = []
        #: sampling decisions made through :meth:`start` (callers that
        #: inline the gate bypass this counter for unsampled requests)
        self.requests_seen = 0
        #: requests actually traced
        self.traces_started = 0
        self.traces_finished = 0

    # -------------------------------------------------------------- sampling

    def start(self, name: str, at: float | None = None) -> Trace | None:
        """Begin a trace for this request, or ``None`` when not sampled."""
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        self.requests_seen += 1
        self.credit += rate
        if self.credit < 1.0:
            return None
        return self.start_sampled(name, at=at)

    def start_sampled(self, name: str, at: float | None = None) -> Trace:
        """Begin a trace after an externally-inlined gate.

        The caller has already added ``sample_rate`` to :attr:`credit` and
        observed it cross 1.0 — this consumes the credit and always
        returns a live :class:`Trace`.
        """
        self.credit -= 1.0
        self.traces_started += 1
        return Trace(name, self._clock, at=at)

    def finish(self, trace: Trace, at: float | None = None) -> None:
        """Complete a trace and fold it into the exemplar store."""
        trace.finish(at=at)
        self.traces_finished += 1
        exemplars = self._exemplars
        exemplars.append((trace.duration, self.traces_finished, trace))
        exemplars.sort(key=lambda item: (-item[0], item[1]))
        del exemplars[self._max_exemplars:]

    # ------------------------------------------------------------ inspection

    def exemplars(self) -> list[Trace]:
        """The slowest completed traces, slowest first."""
        return [trace for _duration, _order, trace in self._exemplars]

    def render_slowest(self, limit: int | None = None) -> str:
        """Text rendering of the slowest-trace exemplars."""
        traces = self.exemplars()
        if limit is not None:
            traces = traces[:limit]
        if not traces:
            return "(no traces recorded)"
        return "\n\n".join(render_trace(trace) for trace in traces)


def _format_seconds(seconds: float) -> str:
    """Human latency formatting: µs below 1 ms, ms below 1 s."""
    if math.isnan(seconds):
        return "?"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


def render_trace(trace: Trace) -> str:
    """Render one trace as an indented span tree with durations.

    Example shape::

        request.get 1.204ms  key=usertable:77  outcome=miss  retries=2
        ├─ frontend.cache 1.9µs
        ├─ ring.route 2.1µs
        ├─ shard.lookup 1.050ms  shard=cache-3
        ├─ storage.fallback 120.0µs
        ├─ shard.backfill 26.0µs  shard=cache-3
        └─ frontend.admit 4.0µs
    """
    lines: list[str] = []
    root = trace.root
    meta = "".join(f"  {k}={v}" for k, v in trace.meta.items())
    lines.append(f"{root.name} {_format_seconds(root.duration)}{meta}")

    def walk(index: int, prefix: str) -> None:
        children = list(trace.children(index))
        for position, child_index in enumerate(children):
            span = trace.spans[child_index]
            last = position == len(children) - 1
            connector = "└─ " if last else "├─ "
            span_meta = ""
            if span.meta:
                span_meta = "".join(f"  {k}={v}" for k, v in span.meta.items())
            lines.append(
                f"{prefix}{connector}{span.name} "
                f"{_format_seconds(span.duration)}{span_meta}"
            )
            walk(child_index, prefix + ("   " if last else "│  "))

    walk(0, "")
    return "\n".join(lines)
