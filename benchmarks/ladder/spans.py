"""The ladder's own span recorder and the proxies that emit spans.

The traced run prices each serving layer *from outside*: every object
the front-end client is handed through a public constructor argument
(policy, cluster or network plane, guard) is wrapped in a delegating
proxy that records a span around each call into the layer. Nothing in
``src/`` is edited or patched.

A span is ``[name, start_ns, end_ns, parent, request_id]``; ``parent``
is an index into the same list (``-1`` for a root). A layer's *self*
time is its span's duration minus its children's durations, so the self
times of one request add up to its root span exactly — that identity is
what ``trace.reconcile_ratio`` checks. Recording a span costs about as
much as the cheapest layers do (``trace.overhead_ratio`` says how much in
all), so self times read high by a constant per span: compare them
between commits, not with the untraced end-to-end figures.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable, Hashable

__all__ = [
    "Recorder",
    "TracedCluster",
    "TracedGuard",
    "TracedPolicy",
    "dump",
    "self_times",
]

NAME, START, END, PARENT, REQUEST = range(5)


class Recorder:
    """In-memory span store; off until :attr:`on` is set (warm-up is untraced).

    One flat list per column: recording a span allocates nothing the
    garbage collector tracks, so a million spans do not trigger it.
    """

    def __init__(self) -> None:
        self.on = False
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._requests: list[int] = []
        self._stack: list[int] = []
        self._roots = 0

    def open(self, name: str, parent: int = -1) -> int:
        """Open a span under an explicit parent (interleaved coroutines)."""
        if parent < 0:
            request = self._roots = self._roots + 1
        else:
            request = self._requests[parent]
        self._names.append(name)
        self._parents.append(parent)
        self._requests.append(request)
        self._ends.append(0)
        self._starts.append(perf_counter_ns())
        return len(self._starts) - 1

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one (synchronous code)."""
        stack = self._stack
        index = self.open(name, stack[-1] if stack else -1)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._ends[index] = perf_counter_ns()
        self._stack.pop()

    def close(self, index: int) -> None:
        self._ends[index] = perf_counter_ns()

    def rows(self) -> list[list]:
        """The spans as ``[name, start_ns, end_ns, parent, request_id]`` rows."""
        return [
            list(row)
            for row in zip(self._names, self._starts, self._ends, self._parents, self._requests)
        ]


def dump(path: str, spans: list[list], **meta: Any) -> None:
    """Write span rows out (one JSON document, columns named once)."""
    with open(path, "w") as handle:
        json.dump(
            {**meta, "columns": ["name", "start_ns", "end_ns", "parent", "request_id"],
             "spans": spans},
            handle,
        )


def self_times(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per span name: ``count``, ``total_ns`` and ``self_ns``."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict[str, int]] = {}
    for index, span in enumerate(spans):
        row = table.get(span[NAME])
        if row is None:
            row = table[span[NAME]] = {"count": 0, "total_ns": 0, "self_ns": 0}
        duration = span[END] - span[START]
        row["count"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - child_ns[index]
    return table


# --------------------------------------------------------------------------
# delegating proxies (hot methods spelled out, the rest via __getattr__)


class _Proxy:
    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._rec = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        rec = self._rec
        if not rec.on:
            return fn(*args)
        index = rec.begin(name)
        try:
            return fn(*args)
        finally:
            rec.end(index)


class TracedPolicy(_Proxy):
    """``policy.get_or_admit`` span; the loader it is handed → ``client.fetch``."""

    def get_or_admit(self, key: Hashable, loader: Callable[[Hashable], Any]) -> Any:
        return self._span(
            "policy.get_or_admit",
            self._inner.get_or_admit,
            key,
            lambda k: self._span("client.fetch", loader, k),
        )

    def record_update(self, key: Hashable) -> None:
        return self._span("policy.record_update", self._inner.record_update, key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._inner


class _TracedShard(_Proxy):
    def get(self, key: Hashable) -> Any:
        return self._span("shard.get", self._inner.get, key)

    def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        return self._span("shard.set", self._inner.set, key, value, size)

    def delete(self, key: Hashable) -> bool:
        return self._span("shard.delete", self._inner.delete, key)


class _TracedStorage(_Proxy):
    def get(self, key: Hashable) -> Any:
        return self._span("storage.get", self._inner.get, key)

    def set(self, key: Hashable, value: Any) -> None:
        return self._span("storage.set", self._inner.set, key, value)


class TracedCluster(_Proxy):
    """Stands in for a ``CacheCluster`` or ``NetworkPlane``: ``ring.route``
    around ``server_for``, and traced shard and storage objects behind it."""

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        super().__init__(inner, recorder)
        self.storage = _TracedStorage(inner.storage, recorder)
        self._shards: dict[str, _TracedShard] = {}

    def _wrap(self, shard: Any) -> _TracedShard:
        wrapped = self._shards.get(shard.server_id)
        if wrapped is None:
            wrapped = self._shards[shard.server_id] = _TracedShard(shard, self._rec)
        return wrapped

    def server_for(self, key: Hashable) -> _TracedShard:
        return self._wrap(self._span("ring.route", self._inner.server_for, key))

    def server(self, server_id: str) -> _TracedShard:
        return self._wrap(self._inner.server(server_id))


class TracedGuard(_Proxy):
    def call(self, server_id: str, fn: Callable[[], Any]) -> Any:
        return self._span("guard.call", self._inner.call, server_id, fn)
