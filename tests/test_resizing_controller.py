"""State-machine tests for the elastic resizing controller (Algorithm 3).

The controller is pure decision logic, so every paper behaviour can be
pinned down with synthetic epoch snapshots: ratio discovery with the
step-back dip, binary-search expansion, alpha_t capture, the three steady
cases, the shrink path, and the statistical guards. ``I_t`` is the
controller's only input, so these tests run the tuning every experiment
runs and pin its values: warm-up is drained through ``observe``.
"""

from __future__ import annotations

import pytest

from repro.cluster.loadmonitor import noise_allowance
from repro.core.epoch import EpochSnapshot
from repro.core.resizing import (
    EPSILON,
    IMBALANCE_TOLERANCE,
    MAX_CACHE,
    MAX_RATIO,
    WARMUP_EPOCHS,
    DecisionKind,
    Phase,
    ResizeDecision,
    ResizingController,
)
from repro.errors import ConfigurationError


def snap(
    index=0,
    cache=2,
    tracker=4,
    imbalance=1.0,
    alpha_c=0.0,
    alpha_k_c=0.0,
    accesses=5000,
) -> EpochSnapshot:
    return EpochSnapshot(
        index=index,
        cache_capacity=cache,
        tracker_capacity=tracker,
        imbalance=imbalance,
        alpha_c=alpha_c,
        alpha_k_c=alpha_k_c,
        accesses=accesses,
    )


def drain_warmup(controller: ResizingController) -> None:
    """Observe the WARMUP_EPOCHS observation-only epochs that follow
    construction or a resize; each must be a WARMUP decision."""
    for _ in range(WARMUP_EPOCHS):
        assert controller.observe(snap()).kind is DecisionKind.WARMUP


def make_controller() -> ResizingController:
    """A controller at I_t = 1.1 whose initial warm-up has run out."""
    controller = ResizingController(target_imbalance=1.1)
    drain_warmup(controller)
    return controller


def step(controller: ResizingController, **kw) -> ResizeDecision:
    """One settled epoch's decision; a resize's warm-up is drained after it."""
    decision = controller.observe(snap(**kw))
    if decision.resized:
        drain_warmup(controller)
    return decision


class TestValidation:
    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            ResizingController(target_imbalance=0.9)


class TestWarmup:
    def test_warmup_consumes_epochs(self):
        """The paper's 5 observation-only epochs after construction."""
        assert WARMUP_EPOCHS == 5
        controller = ResizingController()
        drain_warmup(controller)
        assert controller.observe(snap()).kind is not DecisionKind.WARMUP

    def test_resize_rearms_warmup(self):
        controller = make_controller()
        decision = controller.observe(snap(alpha_c=1.0))  # ratio probe resize
        assert decision.resized
        drain_warmup(controller)
        assert controller.observe(snap(tracker=8)).kind is not DecisionKind.WARMUP


class TestRatioSearch:
    def test_first_epoch_doubles_tracker(self):
        controller = make_controller()
        decision = controller.observe(snap(cache=2, tracker=4, alpha_c=5.0))
        assert decision.kind is DecisionKind.DOUBLE_TRACKER
        assert decision.tracker_capacity == 8
        assert decision.cache_capacity == 2

    def test_significant_gain_keeps_doubling(self):
        controller = make_controller()
        step(controller, tracker=4, alpha_c=5.0)
        decision = controller.observe(snap(tracker=8, alpha_c=10.0))
        assert decision.kind is DecisionKind.DOUBLE_TRACKER
        assert decision.tracker_capacity == 16

    def test_insignificant_gain_steps_back(self):
        """The paper's Figure 7 dip: expand to 16, no benefit, settle at 8."""
        controller = make_controller()
        step(controller, tracker=4, alpha_c=5.0)
        step(controller, tracker=8, alpha_c=10.0)
        decision = controller.observe(snap(tracker=16, alpha_c=10.1))
        assert decision.kind is DecisionKind.SETTLE_RATIO
        assert decision.tracker_capacity == 8
        assert controller.phase is Phase.SIZE_SEARCH

    def test_near_zero_alpha_settles_immediately(self):
        """Uniform workloads: noise gains must not chase tracker growth."""
        controller = make_controller()
        step(controller, tracker=4, alpha_c=0.01)
        decision = controller.observe(snap(tracker=8, alpha_c=0.02))
        assert decision.kind is DecisionKind.SETTLE_RATIO
        assert controller.phase is Phase.SIZE_SEARCH

    def test_ratio_cap(self):
        """The tracker probe doubles up to K = 32 * C and no further."""
        assert MAX_RATIO == 32
        controller = make_controller()
        tracker, alpha = 4, 1.0
        while tracker < MAX_RATIO * 2:
            decision = step(controller, cache=2, tracker=tracker, alpha_c=alpha)
            assert decision.kind is DecisionKind.DOUBLE_TRACKER
            tracker, alpha = decision.tracker_capacity, alpha * 2
        assert tracker == MAX_RATIO * 2
        decision = controller.observe(snap(cache=2, tracker=tracker, alpha_c=alpha))
        # 128 would exceed MAX_RATIO * cache = 64: settle instead.
        assert decision.kind is DecisionKind.SETTLE_RATIO


class TestSizeSearch:
    def make_in_size_search(self) -> ResizingController:
        controller = make_controller()
        controller.phase = Phase.SIZE_SEARCH
        return controller

    def test_violation_doubles_cache_and_tracker(self):
        controller = self.make_in_size_search()
        decision = controller.observe(
            snap(cache=4, tracker=16, imbalance=2.0, alpha_c=3.0)
        )
        assert decision.kind is DecisionKind.EXPAND
        assert decision.cache_capacity == 8
        assert decision.tracker_capacity == 32  # ratio 4 preserved
        assert controller.alpha_target == 3.0

    def test_target_reached_captures_alpha_t(self):
        controller = self.make_in_size_search()
        decision = controller.observe(
            snap(cache=8, tracker=32, imbalance=1.05, alpha_c=7.8)
        )
        assert decision.kind is DecisionKind.TARGET_REACHED
        assert controller.phase is Phase.STEADY
        assert controller.alpha_target == 7.8

    def test_tolerance_band(self):
        """Within 2% of I_t counts as achieved (the paper's no-churn band)."""
        assert IMBALANCE_TOLERANCE == 0.02
        controller = self.make_in_size_search()
        decision = controller.observe(snap(imbalance=1.115, alpha_c=1.0))
        assert decision.kind is DecisionKind.TARGET_REACHED
        controller = self.make_in_size_search()
        decision = controller.observe(snap(imbalance=1.125, alpha_c=1.0))
        assert decision.kind is DecisionKind.EXPAND

    def test_noise_allowance_scales_target(self):
        controller = self.make_in_size_search()
        noisy = EpochSnapshot(
            index=0, cache_capacity=2, tracker_capacity=4,
            imbalance=1.3, alpha_c=1.0, alpha_k_c=0.0,
            accesses=1000, noise_allowance=1.25,
        )
        decision = controller.observe(noisy)
        # 1.3 <= 1.122 * 1.25: not a significant violation.
        assert decision.kind is DecisionKind.TARGET_REACHED

    def test_zero_sample_means_trust_measurement(self):
        controller = self.make_in_size_search()
        trusted = EpochSnapshot(
            index=0, cache_capacity=2, tracker_capacity=4,
            imbalance=3.0, alpha_c=1.0, alpha_k_c=0.0,
            accesses=1000, noise_allowance=noise_allowance(0, 4),
        )
        decision = controller.observe(trusted)
        assert decision.kind is DecisionKind.EXPAND

    def test_futility_settles(self):
        controller = self.make_in_size_search()
        # I_c never improves: the second futile expansion in a row settles.
        d1 = step(controller, cache=2, tracker=4, imbalance=1.30)
        assert d1.kind is DecisionKind.EXPAND
        d2 = step(controller, cache=4, tracker=8, imbalance=1.30)
        assert d2.kind is DecisionKind.EXPAND
        d3 = controller.observe(snap(cache=8, tracker=16, imbalance=1.30))
        assert d3.kind is DecisionKind.NONE
        assert controller.phase is Phase.STEADY

    def test_improving_expansion_not_futile(self):
        controller = self.make_in_size_search()
        step(controller, cache=2, tracker=4, imbalance=2.0)
        step(controller, cache=4, tracker=8, imbalance=1.6)
        step(controller, cache=8, tracker=16, imbalance=1.3)
        decision = controller.observe(snap(cache=16, tracker=32, imbalance=1.18))
        assert decision.kind is DecisionKind.EXPAND

    def test_max_cache_stops_expansion(self):
        assert MAX_CACHE == 1 << 20
        controller = self.make_in_size_search()
        decision = step(
            controller, cache=MAX_CACHE // 2, tracker=MAX_CACHE, imbalance=5.0
        )
        assert decision.kind is DecisionKind.EXPAND
        assert decision.cache_capacity == MAX_CACHE
        decision = controller.observe(
            snap(cache=MAX_CACHE, tracker=MAX_CACHE * 2, imbalance=5.0)
        )
        assert decision.kind is DecisionKind.NONE
        assert controller.phase is Phase.STEADY


class TestSteady:
    def make_steady(self, alpha_t=10.0) -> ResizingController:
        controller = make_controller()
        controller.phase = Phase.STEADY
        controller.alpha_target = alpha_t
        return controller

    def test_case3_quality_ok_does_nothing(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(imbalance=1.0, alpha_c=10.5, alpha_k_c=0.5)
        )
        assert decision.kind is DecisionKind.NONE

    def test_both_high_does_nothing_while_balanced(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(imbalance=1.0, alpha_c=12.0, alpha_k_c=11.0)
        )
        assert decision.kind is DecisionKind.NONE

    def test_case1_quality_collapse_starts_shrink(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(cache=8, tracker=64, imbalance=1.0, alpha_c=0.5, alpha_k_c=0.3)
        )
        assert decision.kind is DecisionKind.RESET_RATIO
        assert decision.tracker_capacity == 16  # 2:1 reset
        assert controller.phase is Phase.SHRINKING

    def test_case2_rotation_triggers_decay(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(imbalance=1.0, alpha_c=0.5, alpha_k_c=11.0)
        )
        assert decision.kind is DecisionKind.DECAY
        assert decision.decay
        assert not decision.resized

    def test_violation_reenters_size_search(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(cache=4, tracker=8, imbalance=2.0, alpha_c=12.0)
        )
        assert decision.kind is DecisionKind.EXPAND
        assert controller.phase is Phase.SIZE_SEARCH

    def test_epsilon_hysteresis(self):
        """alpha_c just below alpha_t must NOT trigger anything; below
        (1 - ε) * alpha_t it does."""
        assert EPSILON == 0.05
        controller = self.make_steady(alpha_t=10.0)
        decision = controller.observe(
            snap(imbalance=1.0, alpha_c=9.6, alpha_k_c=0.0)
        )
        assert decision.kind is DecisionKind.NONE
        decision = controller.observe(
            snap(cache=8, tracker=16, imbalance=1.0, alpha_c=9.4, alpha_k_c=0.0)
        )
        assert decision.kind is DecisionKind.RESET_RATIO

    def test_at_min_sizes_no_shrink_churn(self):
        controller = self.make_steady()
        decision = controller.observe(
            snap(cache=1, tracker=2, imbalance=1.0, alpha_c=0.0, alpha_k_c=0.0)
        )
        assert decision.kind is DecisionKind.NONE


class TestShrinking:
    def make_shrinking(self, alpha_t=10.0) -> ResizingController:
        controller = make_controller()
        controller.phase = Phase.SHRINKING
        controller.alpha_target = alpha_t
        return controller

    def test_halves_while_quality_low(self):
        controller = self.make_shrinking()
        decision = controller.observe(
            snap(cache=16, tracker=32, imbalance=1.0, alpha_c=0.1, alpha_k_c=0.1)
        )
        assert decision.kind is DecisionKind.SHRINK
        assert decision.cache_capacity == 8
        assert decision.tracker_capacity == 16

    def test_stops_at_min(self):
        controller = self.make_shrinking()
        decision = controller.observe(
            snap(cache=1, tracker=2, imbalance=1.0, alpha_c=0.0)
        )
        assert decision.kind is DecisionKind.NONE
        assert controller.phase is Phase.STEADY

    def test_quality_recovery_completes_shrink(self):
        controller = self.make_shrinking(alpha_t=10.0)
        decision = controller.observe(
            snap(cache=16, tracker=32, imbalance=1.0, alpha_c=10.2)
        )
        assert decision.kind is DecisionKind.NONE
        assert controller.phase is Phase.STEADY

    def test_violation_doubles_back(self):
        controller = self.make_shrinking()
        decision = controller.observe(
            snap(cache=8, tracker=16, imbalance=2.0, alpha_c=0.1)
        )
        assert decision.kind is DecisionKind.EXPAND
        assert controller.phase is Phase.SIZE_SEARCH


class TestDecision:
    def test_resized_property(self):
        assert ResizeDecision(DecisionKind.EXPAND, 4, 8).resized
        assert not ResizeDecision(DecisionKind.NONE, 4, 8).resized
        assert not ResizeDecision(DecisionKind.DECAY, 4, 8, decay=True).resized

    def test_effective_target(self):
        controller = ResizingController(target_imbalance=1.1)
        assert controller.effective_target == pytest.approx(1.122)
