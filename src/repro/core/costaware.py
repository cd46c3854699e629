"""Cost-aware elastic sizing: pay for a cache line only while it earns.

The paper's :class:`~repro.core.resizing.ResizingController` resizes to
hit a *load-imbalance* target — memory is a means to an end and the end
is balance. Carra et al.'s elastic provisioning work (arXiv:1802.04696)
optimizes the complementary objective: every cache line has a rental
price (memory cost per epoch) and every hit has a value, so the right
size is the one where the *marginal* line still pays its rent. Ditto
(arXiv:2309.10239) makes the same point from the eviction side — judge
caching decisions by observed hit value, not raw hit rate.

:class:`CostAwareController` drops into
:class:`~repro.core.elastic.ElasticCoTClient` as a controller
replacement (same ``observe``/``phase``/``alpha_target`` surface, same
:class:`~repro.core.resizing.ResizeDecision` output) and reads the same
:class:`~repro.core.epoch.EpochSnapshot` the imbalance controller does.
CoT's dual-history structure is what makes the marginal estimate free:

* ``alpha_c`` — hits per *cached* line per epoch — is the average rent
  performance of the lines currently paid for;
* ``alpha_k_c`` — hits per *tracked-but-not-cached* line — estimates
  what the next ``K - C`` candidate lines would earn if promoted, i.e.
  the marginal hit rate of growing the cache.

Against the break-even rate ``line_cost / hit_value`` (hits per line
per epoch where a line exactly pays for itself) the rules are:

* **expand** (double ``C``) while the marginal lines would earn more
  than break-even — growth buys hits worth more than the memory;
* **shrink** (halve ``C``) when even the *average* cached line earns
  less than break-even — the tail of the cache is dead weight;
* **decay** when tracked lines outscore cached ones (stale residents —
  same trigger as the paper's Case 2);
* observation-only warm-up epochs after every resize, so decisions are
  made on settled statistics.

``ext-write`` benchmarks this controller head-to-head against the
imbalance controller across YCSB A-F at every write mode.
"""

from __future__ import annotations

import enum

from repro.core.epoch import EpochSnapshot
from repro.core.resizing import (
    MAX_CACHE,
    MIN_CACHE,
    MIN_TRACKER,
    DecisionKind,
    ResizeDecision,
)
from repro.errors import ConfigurationError

__all__ = ["CostAwareController", "CostPhase"]

#: ``K/C`` kept across resizes (CoT needs ``K > C`` for the marginal
#: estimate to exist).
TRACKER_RATIO = 4
#: observation-only epochs after construction and after every resize.
WARMUP_EPOCHS = 2
#: multiplicative dead band around break-even: expand only above
#: ``target * HYSTERESIS``, shrink only below ``target / HYSTERESIS`` — an
#: expand can never immediately justify a shrink.
HYSTERESIS = 1.25
#: relative dead band on the Case-2 decay trigger (mirroring the imbalance
#: controller's ``EPSILON``): decay only when
#: ``alpha_k_c > alpha_c * (1 + DECAY_EPSILON)``. Without it, measurement
#: noise that leaves ``alpha_k_c`` a hair above ``alpha_c`` at steady state
#: would halve all hotness every epoch, erasing the frequency history the
#: controller reads.
DECAY_EPSILON = 0.05


class CostPhase(enum.Enum):
    """Cost-aware controller phases (the epoch record's ``phase`` field)."""

    WARMUP = "cost_warmup"
    STEADY = "cost_steady"
    EXPANDING = "cost_expanding"
    SHRINKING = "cost_shrinking"


class CostAwareController:
    """Resize on estimated memory cost vs. observed hit value per epoch.

    Parameters
    ----------
    hit_value:
        value of one cache hit (arbitrary units; only the ratio to
        ``line_cost`` matters).
    line_cost:
        rent of one cache line for one epoch, in the same units. The
        break-even rate ``line_cost / hit_value`` is exposed as
        ``alpha_target`` — the quantity this controller drives the
        marginal hit rate toward, mirroring how the imbalance
        controller exposes its hit-rate target.

    The rest of the tuning is constant; the size rails are the imbalance
    controller's.
    """

    def __init__(self, hit_value: float = 1.0, line_cost: float = 0.05) -> None:
        if hit_value <= 0:
            raise ConfigurationError("hit_value must be > 0")
        if line_cost <= 0:
            raise ConfigurationError("line_cost must be > 0")
        self.hit_value = hit_value
        self.line_cost = line_cost
        self.phase = CostPhase.WARMUP
        self._warmup_remaining = WARMUP_EPOCHS

    @property
    def alpha_target(self) -> float:
        """Break-even hits per line per epoch (``line_cost / hit_value``)."""
        return self.line_cost / self.hit_value

    def _sizes(self, cache: int) -> tuple[int, int]:
        cache = max(MIN_CACHE, min(cache, MAX_CACHE))
        tracker = max(cache * TRACKER_RATIO, MIN_TRACKER)
        return cache, tracker

    def observe(self, snapshot: EpochSnapshot) -> ResizeDecision:
        """One epoch's decision from the cost/value ledger."""
        cache = snapshot.cache_capacity
        tracker = snapshot.tracker_capacity
        if self._warmup_remaining > 0:
            self._warmup_remaining -= 1
            self.phase = CostPhase.WARMUP
            return ResizeDecision(
                DecisionKind.WARMUP, cache, tracker, note="cost warmup"
            )
        target = self.alpha_target
        if snapshot.alpha_k_c > target * HYSTERESIS and cache < MAX_CACHE:
            new_cache, new_tracker = self._sizes(cache * 2)
            self.phase = CostPhase.EXPANDING
            self._warmup_remaining = WARMUP_EPOCHS
            return ResizeDecision(
                DecisionKind.EXPAND,
                new_cache,
                new_tracker,
                note=(
                    f"marginal alpha_k_c={snapshot.alpha_k_c:.4f} "
                    f"> break-even {target:.4f}"
                ),
            )
        if snapshot.alpha_c < target / HYSTERESIS and cache > MIN_CACHE:
            new_cache, new_tracker = self._sizes(cache // 2)
            self.phase = CostPhase.SHRINKING
            self._warmup_remaining = WARMUP_EPOCHS
            return ResizeDecision(
                DecisionKind.SHRINK,
                new_cache,
                new_tracker,
                note=(
                    f"average alpha_c={snapshot.alpha_c:.4f} "
                    f"< break-even {target:.4f}"
                ),
            )
        self.phase = CostPhase.STEADY
        if snapshot.alpha_k_c > snapshot.alpha_c * (1.0 + DECAY_EPSILON):
            return ResizeDecision(
                DecisionKind.DECAY,
                cache,
                tracker,
                decay=True,
                note="tracked lines outscore cached lines",
            )
        return ResizeDecision(DecisionKind.NONE, cache, tracker)

    def __repr__(self) -> str:
        return (
            f"CostAwareController(break_even={self.alpha_target:.4f}, "
            f"phase={self.phase.value})"
        )
