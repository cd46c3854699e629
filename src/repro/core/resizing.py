"""CoT's elastic resizing controller (paper Algorithm 3 + Section 5.4).

The controller is **pure decision logic**: it consumes one
:class:`~repro.core.epoch.EpochSnapshot` per epoch and emits a
:class:`ResizeDecision`; applying decisions (actually resizing the cache,
running decay, resetting counters) is the front end's job
(:mod:`repro.core.elastic`). This separation makes the state machine
directly unit-testable with synthetic epoch streams.

The state machine reproduces the behaviour narrated in the paper's
adaptive-resizing evaluation (Figures 7-8):

``RATIO_SEARCH``
    Phase 1 of auto-configuration: the cache size is held fixed while the
    tracker doubles each (post-warm-up) epoch until the observed hit rate
    per cache-line stops improving significantly; the tracker then steps
    back to the last beneficial size (the paper's 16 → 8 dip at epoch 16).
``SIZE_SEARCH``
    Phase 2: cache and tracker double together (binary search, Algorithm 3
    lines 1-5) until ``I_c ≤ I_t``; on success ``alpha_t`` is captured as
    the quality of the cached keys at the moment the target was first met.
``STEADY``
    Algorithm 3's else-branch. Case 1 (both ``alpha_c`` and ``alpha_k_c``
    below ``(1-ε)·alpha_t``): the cached-key quality collapsed — reset the
    ratio to 2:1 and start shrinking. Case 2 (``alpha_c`` low but
    ``alpha_k_c`` healthy): the hot set is rotating — trigger half-life
    decay. Case 3: do nothing. A violated ``I_c > I_t`` re-enters
    ``SIZE_SEARCH`` (doubling), resetting ``alpha_t``.
``SHRINKING``
    Figure 8's path: halve cache and tracker each epoch while the quality
    stays below target and ``I_t`` holds, down to the minimum
    sizes; recovery of quality or an ``I_t`` violation exits to ``STEADY``
    / ``SIZE_SEARCH`` respectively.

Every resize is followed by :data:`WARMUP_EPOCHS` observation-only epochs
(the paper's 5) so decisions are made on settled statistics, and no resize
triggers while ``I_c`` is within :data:`IMBALANCE_TOLERANCE` of ``I_t`` (the
paper's 2%). ``I_t`` is the controller's only input; the tuning below is
constant, and DESIGN.md §5 tabulates which values are the paper's and which
are this reproduction's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.epoch import EpochSnapshot
from repro.errors import ConfigurationError

__all__ = ["Phase", "DecisionKind", "ResizeDecision", "ResizingController"]

#: Algorithm 3's hysteresis ``ε``: quality is "below target" only under
#: ``(1 - EPSILON) * alpha_t``.
EPSILON = 0.05
#: no resize triggers while ``I_c <= I_t * (1 + IMBALANCE_TOLERANCE)``
#: (the paper's "within 2% of I_t").
IMBALANCE_TOLERANCE = 0.02
#: observation-only epochs after construction and after every resize.
WARMUP_EPOCHS = 5
#: phase-1 significance: doubling the tracker must improve ``alpha_c`` by
#: this relative fraction to keep doubling ...
RATIO_GAIN_THRESHOLD = 0.10
#: ... and by at least this much absolutely, so near-zero hit rates
#: (uniform workloads) do not chase noise.
MIN_ALPHA_GAIN = 0.05
#: smallest sizes the shrink path may reach (a minimal cache is kept alive
#: to detect future workload changes, per the paper), and the largest cache
#: a doubling may reach; the cost-aware controller shares these rails.
MIN_CACHE = 1
MIN_TRACKER = 2
MAX_CACHE = 1 << 20
#: largest ``K/C`` the tracker-ratio probe may reach.
MAX_RATIO = 32
#: futility guard: an expansion that improves ``I_c`` by less than this
#: relative fraction is futile, and this many futile expansions in a row
#: settle the size search.
FUTILITY_THRESHOLD = 0.02
FUTILITY_ROUNDS = 2


class Phase(enum.Enum):
    """Controller state-machine phases."""

    RATIO_SEARCH = "ratio_search"
    SIZE_SEARCH = "size_search"
    STEADY = "steady"
    SHRINKING = "shrinking"


class DecisionKind(enum.Enum):
    """What the controller decided this epoch."""

    NONE = "none"
    WARMUP = "warmup"
    DOUBLE_TRACKER = "double_tracker"
    SETTLE_RATIO = "settle_ratio"
    EXPAND = "expand"
    TARGET_REACHED = "target_reached"
    SHRINK = "shrink"
    RESET_RATIO = "reset_ratio"
    DECAY = "decay"


@dataclass(frozen=True)
class ResizeDecision:
    """The controller's output for one epoch.

    ``cache_capacity``/``tracker_capacity`` are the sizes to use from the
    next epoch on (unchanged values mean "keep"); ``decay`` asks the front
    end to run half-life decay over the tracker.
    """

    kind: DecisionKind
    cache_capacity: int
    tracker_capacity: int
    decay: bool = False
    note: str = ""

    @property
    def resized(self) -> bool:
        """Whether this decision changes any capacity."""
        return self.kind in (
            DecisionKind.DOUBLE_TRACKER,
            DecisionKind.SETTLE_RATIO,
            DecisionKind.EXPAND,
            DecisionKind.SHRINK,
            DecisionKind.RESET_RATIO,
        )


class ResizingController:
    """Decision logic for CoT's elastic cache/tracker sizing.

    Parameters
    ----------
    target_imbalance:
        ``I_t`` — the administrator's only input (paper Section 4.1).
    """

    def __init__(self, target_imbalance: float = 1.1) -> None:
        if target_imbalance < 1.0:
            raise ConfigurationError("target imbalance must be >= 1.0")
        self.target_imbalance = target_imbalance
        self.phase = Phase.RATIO_SEARCH
        self.alpha_target = 0.0
        self._warmup_remaining = WARMUP_EPOCHS
        self._ratio_baseline: float | None = None
        self._ratio_prev_tracker: int | None = None
        self._imbalance_before_expand: float | None = None
        self._futile_expands = 0

    # ----------------------------------------------------------- public api

    @property
    def effective_target(self) -> float:
        """``I_t`` with the no-churn tolerance applied."""
        return self.target_imbalance * (1.0 + IMBALANCE_TOLERANCE)

    def observe(self, snapshot: EpochSnapshot) -> ResizeDecision:
        """Consume one epoch summary and decide (the Algorithm 3 step)."""
        if self._warmup_remaining > 0:
            self._warmup_remaining -= 1
            return self._keep(snapshot, DecisionKind.WARMUP, "warming up")
        if self.phase is Phase.RATIO_SEARCH:
            return self._observe_ratio_search(snapshot)
        if self.phase is Phase.SIZE_SEARCH:
            return self._observe_size_search(snapshot)
        if self.phase is Phase.SHRINKING:
            return self._observe_shrinking(snapshot)
        return self._observe_steady(snapshot)

    # ------------------------------------------------------------ internals

    def _keep(
        self, snapshot: EpochSnapshot, kind: DecisionKind, note: str
    ) -> ResizeDecision:
        return ResizeDecision(
            kind, snapshot.cache_capacity, snapshot.tracker_capacity, note=note
        )

    def _resize(
        self,
        kind: DecisionKind,
        cache: int,
        tracker: int,
        note: str,
        decay: bool = False,
    ) -> ResizeDecision:
        cache = max(MIN_CACHE, min(cache, MAX_CACHE))
        tracker = max(MIN_TRACKER, max(tracker, cache * 2))
        self._warmup_remaining = WARMUP_EPOCHS
        return ResizeDecision(kind, cache, tracker, decay=decay, note=note)

    def _quality_below_target(self, alpha: float) -> bool:
        return alpha < (1.0 - EPSILON) * self.alpha_target

    def _violation(self, snapshot: EpochSnapshot) -> bool:
        """``I_c > I_t`` beyond what sampling noise alone would produce.

        The snapshot's ``noise_allowance`` scales the target up by the
        max/min ratio a *perfectly balanced* system would show on the same
        finite lookup sample. The elastic client always reports one; it
        vanishes at paper scale, and ``1.0`` trusts the measurement exactly.
        """
        threshold = self.effective_target * max(snapshot.noise_allowance, 1.0)
        return snapshot.imbalance > threshold

    # Phase 1: discover the tracker:cache ratio for this workload.

    def _observe_ratio_search(self, snapshot: EpochSnapshot) -> ResizeDecision:
        cache, tracker = snapshot.cache_capacity, snapshot.tracker_capacity
        if self._ratio_baseline is None:
            # First settled epoch at the initial ratio: record and double.
            self._ratio_baseline = snapshot.alpha_c
            self._ratio_prev_tracker = tracker
            return self._resize(
                DecisionKind.DOUBLE_TRACKER,
                cache,
                tracker * 2,
                f"ratio probe: K {tracker} -> {tracker * 2}",
            )
        gain = snapshot.alpha_c - self._ratio_baseline
        significant = gain > max(
            RATIO_GAIN_THRESHOLD * self._ratio_baseline, MIN_ALPHA_GAIN
        )
        at_cap = tracker * 2 > MAX_RATIO * max(cache, 1)
        if significant and not at_cap:
            self._ratio_baseline = snapshot.alpha_c
            self._ratio_prev_tracker = tracker
            return self._resize(
                DecisionKind.DOUBLE_TRACKER,
                cache,
                tracker * 2,
                f"ratio probe: K {tracker} -> {tracker * 2}",
            )
        # No significant benefit from the last doubling: settle on the
        # previous tracker size (the paper's dip back from 16 to 8).
        settled = self._ratio_prev_tracker or tracker
        self.phase = Phase.SIZE_SEARCH
        self._ratio_baseline = None
        self._ratio_prev_tracker = None
        if settled != tracker:
            return self._resize(
                DecisionKind.SETTLE_RATIO,
                cache,
                settled,
                f"ratio settled at {settled // max(cache, 1)}:1",
            )
        return self._keep(
            snapshot, DecisionKind.SETTLE_RATIO, "ratio settled in place"
        )

    # Phase 2: binary-search the cache size that achieves I_t.

    def _observe_size_search(self, snapshot: EpochSnapshot) -> ResizeDecision:
        if not self._violation(snapshot):
            self.alpha_target = snapshot.alpha_c
            self.phase = Phase.STEADY
            self._imbalance_before_expand = None
            self._futile_expands = 0
            return self._keep(
                snapshot,
                DecisionKind.TARGET_REACHED,
                f"I_c={snapshot.imbalance:.3f} <= I_t; alpha_t={self.alpha_target:.3f}",
            )
        # Futility guard (deviation from the paper, documented in DESIGN.md):
        # with low-skew workloads the measured I_c is dominated by sampling
        # noise that no cache size can remove; if doubling stopped improving
        # I_c for FUTILITY_ROUNDS consecutive expansions, settle instead
        # of doubling forever.
        if self._imbalance_before_expand is not None:
            improvement = self._imbalance_before_expand - snapshot.imbalance
            if improvement < FUTILITY_THRESHOLD * self._imbalance_before_expand:
                self._futile_expands += 1
            else:
                self._futile_expands = 0
        if (
            self._futile_expands >= FUTILITY_ROUNDS
            or snapshot.cache_capacity >= MAX_CACHE
        ):
            self.phase = Phase.STEADY
            self.alpha_target = snapshot.alpha_c
            self._imbalance_before_expand = None
            self._futile_expands = 0
            return self._keep(
                snapshot,
                DecisionKind.NONE,
                "expansion no longer reduces I_c; settling at current size",
            )
        ratio = max(
            2, snapshot.tracker_capacity // max(snapshot.cache_capacity, 1)
        )
        new_cache = max(1, snapshot.cache_capacity * 2)
        self.alpha_target = snapshot.alpha_c
        self._imbalance_before_expand = snapshot.imbalance
        return self._resize(
            DecisionKind.EXPAND,
            new_cache,
            new_cache * ratio,
            f"I_c={snapshot.imbalance:.3f} > I_t: C -> {new_cache}",
        )

    # Steady state: Algorithm 3's else-branch.

    def _observe_steady(self, snapshot: EpochSnapshot) -> ResizeDecision:
        if self._violation(snapshot):
            self.phase = Phase.SIZE_SEARCH
            self._imbalance_before_expand = None
            self._futile_expands = 0
            return self._observe_size_search(snapshot)
        cache_low = self._quality_below_target(snapshot.alpha_c)
        tracker_low = self._quality_below_target(snapshot.alpha_k_c)
        if cache_low and tracker_low:
            if snapshot.cache_capacity <= MIN_CACHE:
                # Already at the negligible floor kept to detect future
                # workload changes; nothing left to shrink.
                return self._keep(
                    snapshot, DecisionKind.NONE, "quality low but at minimum sizes"
                )
            # Case 1: overall quality collapsed — begin the shrink path,
            # first resetting the tracker ratio to 2:1 (Figure 8).
            self.phase = Phase.SHRINKING
            cache = snapshot.cache_capacity
            return self._resize(
                DecisionKind.RESET_RATIO,
                cache,
                max(cache * 2, MIN_TRACKER),
                "quality collapsed; ratio reset to 2:1 before shrinking",
            )
        if cache_low and not tracker_low:
            # Case 2: the hot set is rotating — decay old hotness.
            return ResizeDecision(
                DecisionKind.DECAY,
                snapshot.cache_capacity,
                snapshot.tracker_capacity,
                decay=True,
                note="tracked keys outperform cached keys: half-life decay",
            )
        # Case 3: cached keys still meet alpha_t — nothing to do.
        return self._keep(snapshot, DecisionKind.NONE, "target met; quality ok")

    # Shrink path: Figure 8's narrative.

    def _observe_shrinking(self, snapshot: EpochSnapshot) -> ResizeDecision:
        if self._violation(snapshot):
            # Shrinking went too far: Algorithm 3 doubles back next epoch.
            self.phase = Phase.SIZE_SEARCH
            return self._observe_size_search(snapshot)
        if not self._quality_below_target(snapshot.alpha_c):
            # Quality recovered to alpha_t: the shrink is complete.
            self.phase = Phase.STEADY
            return self._keep(
                snapshot, DecisionKind.NONE, "alpha recovered; shrink complete"
            )
        if snapshot.cache_capacity <= MIN_CACHE:
            # Negligible cache retained to detect future workload changes.
            self.phase = Phase.STEADY
            return self._keep(
                snapshot, DecisionKind.NONE, "at minimum sizes; shrink complete"
            )
        new_cache = max(MIN_CACHE, snapshot.cache_capacity // 2)
        new_tracker = max(MIN_TRACKER, snapshot.tracker_capacity // 2)
        return self._resize(
            DecisionKind.SHRINK,
            new_cache,
            new_tracker,
            f"shrinking: C -> {new_cache}",
        )
