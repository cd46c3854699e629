"""The dual-cost hotness model of Equation 1.

The paper (Section 4.1) scores each tracked key with

    h_k = k.r_c * r_w  -  k.u_c * u_w

where ``r_c``/``u_c`` count read and update accesses and ``r_w``/``u_w``
weight them. Updates *subtract* hotness because an update invalidates the
key in every front-end cache: a frequently-updated key is a poor caching
candidate no matter how often it is read.

The weights are :data:`READ_WEIGHT` and :data:`UPDATE_WEIGHT`, unit in
every experiment; :class:`KeyStats` holds the per-key counters
that the tracker stores for each tracked key (8 bytes per node in the
paper's accounting — two counters).
"""

from __future__ import annotations

import enum

__all__ = ["AccessType", "KeyStats"]

#: ``r_w`` — hotness gained per read access (Equation 1).
READ_WEIGHT = 1.0
#: ``u_w`` — hotness lost per update access (Equation 1).
UPDATE_WEIGHT = 1.0


class AccessType(enum.Enum):
    """The two access classes the hotness model distinguishes."""

    READ = "read"
    UPDATE = "update"


class KeyStats:
    """Per-key tracking metadata: counters plus the running hotness.

    Counters are floats so the half-life decay algorithm (which halves all
    counters) keeps hotness exactly halved as well.

    ``hot`` carries the key's hotness *incrementally*: every access moves
    it by a constant delta (``+r_w`` for a read, ``-u_w`` for an update),
    so the data-plane hot path never re-evaluates Equation 1 from the
    counters. The invariant ``hot == hotness()`` (up to float
    associativity) is asserted by ``CoTTracker.check_invariants``.

    ``cached`` mirrors membership in the tracker's cached set ``S_c``; the
    tracker maintains it on promote/demote/admit/evict so the fused access
    path can classify a key with the single ``_stats`` dict probe it
    already paid, instead of a second probe into a heap's entry index.
    """

    __slots__ = ("read_count", "update_count", "hot", "cached")

    def __init__(self) -> None:
        self.read_count = 0.0
        self.update_count = 0.0
        self.hot = 0.0
        self.cached = False

    def hotness(self) -> float:
        """Equation 1, recomputed from the counters."""
        return self.read_count * READ_WEIGHT - self.update_count * UPDATE_WEIGHT

    def decay(self, factor: float) -> None:
        """Scale both counters (and the running hotness) by ``factor``."""
        self.read_count *= factor
        self.update_count *= factor
        self.hot *= factor

    def seed_from_hotness(self, hotness: float) -> None:
        """Initialize counters so the key's hotness equals ``hotness``.

        Implements the "benefit of the doubt" of Algorithm 1 line 4: a key
        newly admitted to the tracker inherits the evicted key's hotness.
        We express the inherited hotness purely as reads, which reproduces
        the same ``h_k`` under Equation 1.
        """
        self.read_count = max(hotness, 0.0) / READ_WEIGHT
        self.update_count = 0.0
        self.hot = self.read_count * READ_WEIGHT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyStats(read_count={self.read_count}, "
            f"update_count={self.update_count}, hot={self.hot}, "
            f"cached={self.cached})"
        )
