"""The dual-cost hotness model of Equation 1.

The paper (Section 4.1) scores each tracked key with

    h_k = k.r_c * r_w  -  k.u_c * u_w

where ``r_c``/``u_c`` count read and update accesses and ``r_w``/``u_w``
weight them. Updates *subtract* hotness because an update invalidates the
key in every front-end cache: a frequently-updated key is a poor caching
candidate no matter how often it is read.

:class:`HotnessModel` holds the weights; :class:`KeyStats` holds the per-key
counters that the tracker stores for each tracked key (8 bytes per node in
the paper's accounting — two counters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["AccessType", "HotnessModel", "KeyStats"]


class AccessType(enum.Enum):
    """The two access classes the hotness model distinguishes."""

    READ = "read"
    UPDATE = "update"


@dataclass(frozen=True)
class HotnessModel:
    """Weights for the dual-cost hotness formula (Equation 1).

    Parameters
    ----------
    read_weight:
        ``r_w`` — hotness gained per read access. Must be positive.
    update_weight:
        ``u_w`` — hotness lost per update access. Must be non-negative.
        ``0`` degenerates to a pure read-frequency model (the ablation
        baseline in ``benchmarks/bench_ablation_hotness.py``).
    """

    read_weight: float = 1.0
    update_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.read_weight <= 0:
            raise ConfigurationError("read_weight must be > 0")
        if self.update_weight < 0:
            raise ConfigurationError("update_weight must be >= 0")

    def hotness(self, read_count: float, update_count: float) -> float:
        """Evaluate Equation 1 for raw counters."""
        return read_count * self.read_weight - update_count * self.update_weight

    def delta(self, access: AccessType) -> float:
        """Hotness change contributed by one access of type ``access``."""
        if access is AccessType.READ:
            return self.read_weight
        return -self.update_weight


class KeyStats:
    """Per-key tracking metadata: counters plus the running hotness.

    Counters are floats so the half-life decay algorithm (which halves all
    counters) keeps hotness exactly halved as well.

    ``hot`` carries the key's hotness *incrementally*: every access moves
    it by the model's constant delta (``+r_w`` for a read, ``-u_w`` for an
    update), so the data-plane hot path never re-evaluates Equation 1 from
    the counters. The invariant ``hot == hotness(model)`` (up to float
    associativity) is asserted by ``CoTTracker.check_invariants``.

    ``cached`` mirrors membership in the tracker's cached set ``S_c``; the
    tracker maintains it on promote/demote/admit/evict so the fused access
    path can classify a key with the single ``_stats`` dict probe it
    already paid, instead of a second probe into a heap's entry index.
    """

    __slots__ = ("read_count", "update_count", "hot", "cached")

    def __init__(
        self,
        read_count: float = 0.0,
        update_count: float = 0.0,
        hot: float | None = None,
    ) -> None:
        self.read_count = read_count
        self.update_count = update_count
        # Default to unit weights (HotnessModel()); a tracker with a
        # custom model re-seeds via ``sync``/``seed_from_hotness``.
        self.hot = read_count - update_count if hot is None else hot
        self.cached = False

    def record(self, access: AccessType) -> None:
        """Bump the counter matching ``access`` (leaves ``hot`` stale).

        Non-hot-path helper kept for direct/standalone use; the tracker
        applies the counter bump and the hotness delta inline instead.
        """
        if access is AccessType.READ:
            self.read_count += 1.0
        else:
            self.update_count += 1.0

    def sync(self, model: HotnessModel) -> float:
        """Recompute ``hot`` from the counters; returns the new value."""
        self.hot = model.hotness(self.read_count, self.update_count)
        return self.hot

    def hotness(self, model: HotnessModel) -> float:
        """Hotness of this key under ``model``, recomputed from counters."""
        return model.hotness(self.read_count, self.update_count)

    def decay(self, factor: float) -> None:
        """Scale both counters (and the running hotness) by ``factor``."""
        self.read_count *= factor
        self.update_count *= factor
        self.hot *= factor

    def seed_from_hotness(self, hotness: float, model: HotnessModel) -> None:
        """Initialize counters so the key's hotness equals ``hotness``.

        Implements the "benefit of the doubt" of Algorithm 1 line 4: a key
        newly admitted to the tracker inherits the evicted key's hotness.
        We express the inherited hotness purely as reads, which reproduces
        the same ``h_k`` under Equation 1.
        """
        self.read_count = max(hotness, 0.0) / model.read_weight
        self.update_count = 0.0
        self.hot = self.read_count * model.read_weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyStats(read_count={self.read_count}, "
            f"update_count={self.update_count}, hot={self.hot}, "
            f"cached={self.cached})"
        )
