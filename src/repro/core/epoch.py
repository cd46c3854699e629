"""Epoch observations and records for the elastic resizing algorithm.

Algorithm 3 runs once per *epoch* of ``E`` accesses. At each epoch end the
front end summarizes what it saw into an :class:`EpochSnapshot` — the
controller's entire input — and the controller's reply plus the snapshot
are archived as an :class:`EpochRecord`, the raw material of the paper's
Figures 7-8 (sizes, ``I_c`` and ``alpha_c`` per epoch).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EpochSnapshot", "EpochRecord"]


@dataclass(frozen=True)
class EpochSnapshot:
    """Everything Algorithm 3 reads at the end of one epoch.

    Attributes
    ----------
    index:
        0-based epoch number.
    cache_capacity / tracker_capacity:
        ``C`` and ``K`` in effect during the epoch.
    imbalance:
        ``I_c`` — max/min of per-back-end lookups *sent by this front end*
        during the epoch.
    alpha_c:
        average hits per cache-line over the epoch (hits on ``S_c`` / C).
    alpha_k_c:
        average hits per tracked-not-cached line (hits on ``S_{k-c}`` /
        (K - C)).
    accesses:
        number of accesses the epoch actually contained (== E except for
        a final partial epoch).
    noise_allowance:
        multiplicative slack on the imbalance target reflecting the
        sampling noise of this measurement (``1.0`` = trust it exactly;
        a front end measuring over ``n`` lookups across ``k`` shards
        reports :func:`~repro.cluster.loadmonitor.noise_allowance`). Lets
        the controller ignore violations a perfectly balanced system would
        also show.
    """

    index: int
    cache_capacity: int
    tracker_capacity: int
    imbalance: float
    alpha_c: float
    alpha_k_c: float
    accesses: int
    noise_allowance: float = 1.0


@dataclass(frozen=True)
class EpochRecord:
    """One archived epoch: the snapshot plus the controller's reaction."""

    snapshot: EpochSnapshot
    decision: str
    phase: str
    alpha_target: float
    new_cache_capacity: int
    new_tracker_capacity: int

    @property
    def index(self) -> int:
        """Epoch number (convenience passthrough)."""
        return self.snapshot.index

    def as_row(self) -> dict[str, float | int | str]:
        """Flatten for table/CSV output in the experiment harnesses."""
        return {
            "epoch": self.snapshot.index,
            "cache": self.snapshot.cache_capacity,
            "tracker": self.snapshot.tracker_capacity,
            "I_c": round(self.snapshot.imbalance, 4),
            "alpha_c": round(self.snapshot.alpha_c, 4),
            "alpha_k_c": round(self.snapshot.alpha_k_c, 4),
            "alpha_t": round(self.alpha_target, 4),
            "decision": self.decision,
            "phase": self.phase,
            "new_cache": self.new_cache_capacity,
            "new_tracker": self.new_tracker_capacity,
        }
