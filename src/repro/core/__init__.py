"""The paper's primary contribution: Cache-on-Track.

* Algorithm 1 — space-saving hotness tracking: :mod:`repro.core.tracker`
  (space-saving with the cached top-``C`` kept inside it).
* Algorithm 2 — the replacement policy: :mod:`repro.core.cache`.
* Algorithm 3 — elastic resizing: :mod:`repro.core.epoch`,
  :mod:`repro.core.resizing`, applied by :mod:`repro.core.elastic`.
* Equation 1 — dual-cost hotness: :mod:`repro.core.hotness`.
* Decay extension: :mod:`repro.core.decay`.
"""

from repro.core.cache import CoTCache
from repro.core.decay import (
    DecayPolicy,
    ExponentialDecay,
    HalfLifeDecay,
    NoDecay,
)
from repro.core.epoch import EpochRecord, EpochSnapshot
from repro.core.heap import IndexedMinHeap
from repro.core.hotness import AccessType, KeyStats
from repro.core.resizing import (
    DecisionKind,
    Phase,
    ResizeDecision,
    ResizingController,
)
from repro.core.tracker import CoTTracker


def __getattr__(name: str):
    """Lazily expose :class:`ElasticCoTClient`.

    The elastic front end glues the core onto the cluster substrate, and
    the cluster substrate itself builds on core primitives; importing it
    eagerly here would create an import cycle, so it resolves on first
    attribute access instead (PEP 562).
    """
    if name == "ElasticCoTClient":
        from repro.core.elastic import ElasticCoTClient

        return ElasticCoTClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CoTCache",
    "CoTTracker",
    "ElasticCoTClient",
    "EpochRecord",
    "EpochSnapshot",
    "IndexedMinHeap",
    "AccessType",
    "KeyStats",
    "DecisionKind",
    "Phase",
    "ResizeDecision",
    "ResizingController",
    "DecayPolicy",
    "NoDecay",
    "HalfLifeDecay",
    "ExponentialDecay",
]
