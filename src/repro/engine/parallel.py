"""The parallel scenario fabric: process-pool fan-out with deterministic merge.

:func:`map_specs` / :func:`map_calls` distribute the *independent tasks*
of an experiment (one spec per sweep point, or one search per policy)
across a spawned worker pool (see DESIGN.md §10). Each task carries its
own explicit seeds, runs a complete scenario in its worker, and returns a
picklable :class:`~repro.engine.telemetry.TelemetrySnapshot` (or a plain
value). Results come back **in task order** regardless of completion
order, and every snapshot a worker froze is *replayed* to the parent's
snapshot listeners in that same order — so rendered tables and
``--metrics-out`` pages are byte-identical to a sequential run at any
worker count. Nothing finer-grained lives here: one scenario always runs
in one process, on the runner's own drive.

Determinism rules, in one place:

1. seeds are a pure function of the task — specs pin explicit seeds, and
   tasks that need derived ones use
   :func:`~repro.workloads.seeding.spawn_seed` ``(root, task_index)``;
   nothing is ever derived from worker identity or scheduling order;
2. results merge in spec order (``pool.map`` with ``chunksize=1``
   preserves input order).

Workers are spawned (never forked), so each has a fresh interpreter with
per-process lazily-initialized caches (the zeta memo); specs must be
picklable (:func:`repro.engine.spec.spawn_safe`) — anything that is not
silently takes the in-process sequential path.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.runners import ClusterRunner, PolicyStreamRunner, SimRunner
from repro.engine.spec import ScenarioSpec, spawn_safe
from repro.engine.telemetry import (
    TelemetrySnapshot,
    add_snapshot_listener,
    notify_snapshot_listeners,
    remove_snapshot_listener,
)
from repro.errors import ConfigurationError
from repro.workloads.seeding import derive_seeds, spawn_seed

__all__ = [
    "configure",
    "configured_workers",
    "default_workers",
    "derive_seeds",
    "map_calls",
    "map_specs",
    "parallel_workers",
    "shutdown",
    "spawn_seed",
]

#: Runner kinds accepted by :func:`map_specs`.
_RUNNER_KINDS: dict[str, Callable[[], Any]] = {
    "policy": PolicyStreamRunner,
    "cluster": ClusterRunner,
    "sim": SimRunner,
}

#: Upper bound for the cpu-derived default — beyond this the sweeps in
#: this repo stop scaling (they have at most a few dozen tasks) and pool
#: startup cost dominates.
_DEFAULT_WORKER_CAP = 8

_workers = 1
#: Set in every fabric worker (pool initializer) so work running inside
#: a worker never tries to fan out again.
_in_worker = False

_pool: Any = None
_pool_size = 0


# --------------------------------------------------------------------------
# worker configuration


def default_workers() -> int:
    """The cpu-aware default worker count: ``min(os.cpu_count(), 8)``."""
    return max(1, min(os.cpu_count() or 1, _DEFAULT_WORKER_CAP))


def configure(workers: int | None) -> int:
    """Set the fabric's worker count (``None`` → :func:`default_workers`).

    ``1`` disables fan-out entirely: every call runs in-process on the
    exact sequential code path. Returns the effective count.
    """
    global _workers
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigurationError("parallel workers must be >= 1")
    _workers = workers
    return _workers


def configured_workers() -> int:
    """The currently configured worker count."""
    return _workers


@contextmanager
def parallel_workers(workers: int | None) -> Iterator[int]:
    """Scoped :func:`configure` — restores the previous count on exit."""
    previous = _workers
    try:
        yield configure(workers)
    finally:
        configure(previous)


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


# --------------------------------------------------------------------------
# the spawn pool


def _get_pool(workers: int) -> Any:
    """The cached spawn pool, rebuilt when the worker count changes."""
    global _pool, _pool_size
    if _pool is not None and _pool_size != workers:
        shutdown()
    if _pool is None:
        context = multiprocessing.get_context("spawn")
        _pool = context.Pool(workers, initializer=_mark_worker)
        _pool_size = workers
    return _pool


def shutdown() -> None:
    """Tear down the cached worker pool (idempotent; re-created on demand)."""
    global _pool, _pool_size
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_size = 0


atexit.register(shutdown)


def _noop() -> None:
    return None


def warm_pool() -> int:
    """Spawn and import-warm the pool ahead of timed work; returns its size.

    Pool workers import the full package in their initializer, so the
    first :func:`map_specs` after a (re)configure pays interpreter
    startup. Benchmarks call this first to keep one-time spawn cost out
    of steady-state scaling measurements.
    """
    if _workers <= 1 or _in_worker or not _main_spawn_safe():
        return 1
    pool = _get_pool(_workers)
    pool.starmap(_noop, [() for _ in range(_workers)], chunksize=1)
    return _workers


# --------------------------------------------------------------------------
# sweep fan-out


class _TaskOutcome:
    """A worker's return: the task value plus the snapshots it froze."""

    __slots__ = ("value", "snapshots")

    def __init__(
        self, value: Any, snapshots: tuple[TelemetrySnapshot, ...]
    ) -> None:
        self.value = value
        self.snapshots = snapshots


@contextmanager
def _captured_snapshots() -> Iterator[list[TelemetrySnapshot]]:
    """Collect every snapshot frozen inside the block (worker side)."""
    captured: list[TelemetrySnapshot] = []
    add_snapshot_listener(captured.append)
    try:
        yield captured
    finally:
        remove_snapshot_listener(captured.append)


def _run_spec_task(task: tuple[str, ScenarioSpec]) -> _TaskOutcome:
    kind, spec = task
    runner = _RUNNER_KINDS[kind]()
    with _captured_snapshots() as captured:
        result = runner.run(spec)
    return _TaskOutcome(result.telemetry, tuple(captured))


def _run_call_task(task: tuple[Callable[..., Any], tuple]) -> _TaskOutcome:
    func, args = task
    with _captured_snapshots() as captured:
        value = func(*args)
    return _TaskOutcome(value, tuple(captured))


def _main_spawn_safe() -> bool:
    """Whether spawned children can re-import this process's ``__main__``.

    Spawn bootstraps each child by re-importing the parent's main module.
    A main run from a real file, ``-c`` or ``-m`` re-imports fine, but a
    script piped on stdin (``python - <<EOF``) leaves ``__main__.__file__``
    as ``"<stdin>"`` — no child can load that, so fan-out must fall back
    to the in-process path.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    return path is None or os.path.exists(path)


def _use_pool(task_count: int, tasks: Iterable[Any]) -> bool:
    """Fan out only when it can help and every task survives pickling."""
    if _in_worker or _workers <= 1 or task_count <= 1:
        return False
    return _main_spawn_safe() and all(spawn_safe(task) for task in tasks)


def _replay(outcomes: Sequence[_TaskOutcome]) -> None:
    """Replay worker-side snapshots to parent listeners, in task order."""
    for outcome in outcomes:
        for snapshot in outcome.snapshots:
            notify_snapshot_listeners(snapshot)


def map_specs(
    runner_kind: str, specs: Iterable[ScenarioSpec]
) -> list[TelemetrySnapshot]:
    """Run independent scenario specs, returning snapshots in spec order.

    ``runner_kind`` is ``"policy"``, ``"cluster"`` or ``"sim"``. With one
    configured worker (or a single spec, or any unpicklable spec) this is
    exactly the legacy sequential loop — same runner, same order, same
    in-process listener notifications. With more workers, specs fan out
    over the spawn pool one task per spec and the parent replays each
    task's snapshots in task order, so outputs are byte-identical at any
    worker count.
    """
    if runner_kind not in _RUNNER_KINDS:
        raise ConfigurationError(
            f"unknown runner kind {runner_kind!r}; "
            f"choose from {sorted(_RUNNER_KINDS)}"
        )
    spec_list = list(specs)
    tasks = [(runner_kind, spec) for spec in spec_list]
    if not _use_pool(len(tasks), tasks):
        runner = _RUNNER_KINDS[runner_kind]()
        return [runner.run(spec).telemetry for spec in spec_list]
    outcomes = _get_pool(_workers).map(_run_spec_task, tasks, chunksize=1)
    _replay(outcomes)
    return [outcome.value for outcome in outcomes]


def map_calls(
    func: Callable[..., Any], args_list: Iterable[tuple]
) -> list[Any]:
    """Run ``func(*args)`` per args-tuple, returning results in input order.

    The generic fan-out for tasks that are *searches* rather than single
    specs (Table 2's per-policy min-cache search): ``func`` must be a
    module-level callable and each args tuple picklable, else everything
    runs in-process sequentially. Worker-side snapshots are replayed to
    parent listeners in task order, exactly as :func:`map_specs`.
    """
    calls = [(func, tuple(args)) for args in args_list]
    if not _use_pool(len(calls), calls):
        return [func(*args) for _f, args in calls]
    outcomes = _get_pool(_workers).map(_run_call_task, calls, chunksize=1)
    _replay(outcomes)
    return [outcome.value for outcome in outcomes]
