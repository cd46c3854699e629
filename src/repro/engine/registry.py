"""Spec registry: the catalog of runnable experiments.

Mirrors :mod:`repro.policies.registry`: experiment modules call
:func:`register_experiment` at import time, and everything that needs to
enumerate the evaluation — the CLI (``python -m repro.experiments``), the
engine smoke stage of ``scripts/verify.sh``, the benches — resolves
through :func:`get_experiment` / :func:`experiment_ids` instead of a
hand-maintained id list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExperimentError

__all__ = [
    "RegisteredExperiment",
    "experiment_ids",
    "get_experiment",
    "register_experiment",
]


@dataclass(frozen=True)
class RegisteredExperiment:
    """One catalog entry: id, one-line description, and the entry point.

    ``run`` takes the :class:`~repro.engine.spec.Scale` preset (plus any
    experiment-specific keyword overrides) and returns one
    :class:`~repro.experiments.common.ExperimentResult` or a list of
    them. ``order`` fixes the canonical paper ordering used by ``all``
    and ``--list`` regardless of module import order.
    """

    experiment_id: str
    description: str
    run: Callable[..., Any]
    order: int = 1_000


_REGISTRY: dict[str, RegisteredExperiment] = {}


def register_experiment(
    experiment_id: str,
    description: str,
    run: Callable[..., Any],
    *,
    order: int = 1_000,
) -> None:
    """Add one experiment to the catalog (import-time, id must be unique)."""
    if experiment_id in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id: {experiment_id!r}")
    _REGISTRY[experiment_id] = RegisteredExperiment(
        experiment_id, description, run, order
    )


def experiment_ids() -> tuple[str, ...]:
    """All registered ids in canonical (paper) order."""
    entries = sorted(_REGISTRY.values(), key=lambda e: (e.order, e.experiment_id))
    return tuple(entry.experiment_id for entry in entries)


def get_experiment(experiment_id: str) -> RegisteredExperiment:
    """Look up one catalog entry by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"registered: {', '.join(experiment_ids())}"
        ) from None

