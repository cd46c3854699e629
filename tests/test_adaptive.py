"""Tests for the adaptive policy arbiter (DESIGN.md §14).

Covers the arbiter as a :class:`CachePolicy` (delegation, stats
continuity across switches, warm handoff, eviction-listener exactness),
the arbitration decision loop (the LINE_COST ledger, the margin rule that
switches in the first decided epoch a challenger clears it, the
min-samples guard, a switch after the arbiter outgrew its tracker), the
batch/scalar decision equivalence the fused run_stream path must
preserve, a differential against an unbuffered reference that keeps the
access tap unobservable, and the engine wiring (ArbitrationSpec axis,
runner telemetry, spawn safety, default-off byte identity).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.cache import CoTCache
from repro.engine import (
    ArbitrationSpec,
    ClusterRunner,
    PolicySpec,
    PolicyStreamRunner,
    Scale,
    ScenarioSpec,
    WorkloadSpec,
    spawn_safe,
)
from repro.errors import ConfigurationError
from repro.policies.adaptive import (
    LINE_COST,
    AdaptiveArbiter,
    ArbiterEpoch,
    sample_hash,
)
from repro.policies.base import MISSING, CachePolicy
from repro.policies.lru import LRUCache
from repro.policies.registry import make_policy
from repro.workloads.zipfian import ZipfianGenerator


def zipf_keys(n, key_space=2_000, theta=1.2, seed=7):
    return list(ZipfianGenerator(key_space, theta=theta, seed=seed).keys(n))


class TestSampleHash:
    def test_int_and_str_are_deterministic_16_bit(self):
        for key in (0, 1, 12345, 2**40):
            assert 0 <= sample_hash(key) <= 0xFFFF
            assert sample_hash(key) == sample_hash(key)
        assert sample_hash("usertable:17") == sample_hash("usertable:17")
        assert 0 <= sample_hash("usertable:17") <= 0xFFFF

    def test_other_types_hash_via_repr(self):
        assert sample_hash((1, 2)) == sample_hash((1, 2))

    def test_int_hash_spreads_low_bits(self):
        # Sequential ids must not all land in (or out of) the sample.
        sampled = sum((sample_hash(i) & 0x7) == 0 for i in range(8_000))
        assert 0.08 < sampled / 8_000 < 0.17  # nominal rate 1/8


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, candidates=())
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, candidates=("lru", "lru"))
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, epoch_length=0)
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, sample_shift=17)
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, switch_margin=-0.1)
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, min_samples=0)
        with pytest.raises(ConfigurationError):
            AdaptiveArbiter(64, initial="nope")

    def test_defaults(self):
        arbiter = AdaptiveArbiter(64)
        assert arbiter.candidates == ("lru", "lfu", "arc", "lru2", "cot")
        assert arbiter.live_name == "lru"
        assert arbiter.sample_rate == 1 / 64
        assert arbiter.capacity == 64

    def test_shadows_are_scaled_by_sample_rate(self):
        arbiter = AdaptiveArbiter(64, sample_shift=3, candidates=("lru",))
        shadow = arbiter._shadows["lru"]
        assert shadow.capacity == 64 >> 3

    def test_registry_builds_adaptive(self):
        policy = make_policy("adaptive", 64, tracker_capacity=256)
        assert isinstance(policy, AdaptiveArbiter)


class TestServingAndStats:
    def test_delegates_to_live_policy(self):
        arbiter = AdaptiveArbiter(4, candidates=("lru",), sample_shift=0)
        arbiter.admit("a", 1)
        assert arbiter.lookup("a") == 1
        assert "a" in arbiter
        assert len(arbiter) == 1
        assert set(arbiter.cached_keys()) == {"a"}
        assert dict(arbiter.cached_items()) == {"a": 1}
        assert arbiter.lookup("b") is MISSING
        assert arbiter.stats.hits == 1
        assert arbiter.stats.misses == 1

    def test_stats_accumulate_across_switch(self):
        arbiter = AdaptiveArbiter(
            8, candidates=("lru", "lfu"), sample_shift=0, epoch_length=64
        )
        for key in zipf_keys(500, key_space=64):
            if arbiter.lookup(key) is MISSING:
                arbiter.admit(key, key)
        stats = arbiter.stats
        assert stats.hits + stats.misses == 500
        assert stats.hits > 0

    def test_invalidate_and_update_forward_to_live(self):
        arbiter = AdaptiveArbiter(4, candidates=("lru",), sample_shift=0)
        arbiter.lookup("k")  # tick: the shadow admits the ghost entry
        arbiter.admit("k", "v1")
        shadow = arbiter._shadows["lru"]
        # accesses wait in the tap until shadow state is read; peeking at
        # the shadow directly requires draining the tap first
        arbiter._drain()
        assert "k" in shadow
        arbiter.invalidate("k")
        # the sampled shadow heard the invalidation too (before any
        # further lookup re-admits the ghost)
        assert "k" not in shadow
        assert arbiter.lookup("k") is MISSING
        assert arbiter.stats.invalidations == 1
        # writes invalidate the local copy (default record_update), live
        # and shadow alike
        arbiter.admit("k", "v2")
        arbiter.record_update("k")
        assert "k" not in arbiter
        assert "k" not in shadow

    def test_resize_reaches_live_and_shadows(self):
        arbiter = AdaptiveArbiter(64, candidates=("lru",), sample_shift=2)
        arbiter.resize(32)
        assert arbiter.capacity == 32
        assert arbiter.live_policy.capacity == 32
        assert arbiter._shadows["lru"].capacity == 32 >> 2


class TestArbitration:
    @staticmethod
    def lfu_friendly_keys(n, seed=3):
        """Hot set + one-touch scan: LFU clearly beats LRU."""
        rng_keys = zipf_keys(n, key_space=1_000, theta=1.3, seed=seed)
        keys = []
        scan = 10_000
        for i, key in enumerate(rng_keys):
            keys.append(key)
            if i % 2 == 0:  # interleave a never-repeating scan
                keys.append(scan)
                scan += 1
        return keys

    def test_switches_away_from_losing_policy(self):
        arbiter = AdaptiveArbiter(
            32,
            candidates=("lru", "lfu"),
            initial="lru",
            sample_shift=0,
            epoch_length=512,
        )
        arbiter.run_stream(self.lfu_friendly_keys(8_000))
        assert arbiter.live_name == "lfu"
        assert arbiter.switches >= 1
        assert arbiter.epochs > 0
        assert arbiter.history, "epoch records must accumulate"
        switch_records = [r for r in arbiter.history if r.switched_to]
        assert switch_records and switch_records[0].switched_to == "lfu"

    def test_high_margin_blocks_switch(self):
        arbiter = AdaptiveArbiter(
            32,
            candidates=("lru", "lfu"),
            initial="lru",
            sample_shift=0,
            epoch_length=512,
            switch_margin=10.0,
        )
        arbiter.run_stream(self.lfu_friendly_keys(8_000))
        assert arbiter.live_name == "lru"
        assert arbiter.switches == 0

    def test_switches_in_every_decided_epoch_a_challenger_clears_the_margin(self):
        arbiter = AdaptiveArbiter(
            32, candidates=("lru", "lfu", "arc"), initial="lru",
            sample_shift=0, epoch_length=512,
        )
        keys = self.lfu_friendly_keys(8_000) + zipf_keys(8_000, key_space=200)
        arbiter.run_stream(keys)
        live = "lru"  # every epoch is decided: nothing is left unsampled
        for record in arbiter.history:
            best = max(record.scores.values())
            clears = best - record.scores[live] > arbiter.switch_margin
            # no patience: the first epoch that clears the margin switches
            assert (record.switched_to is not None) == clears
            if clears:
                assert record.scores[record.switched_to] == best
                live = record.switched_to
            assert record.live == live
        assert arbiter.switches >= 2

    def test_epoch_scores_charge_line_cost_rent(self):
        assert LINE_COST == 0.05
        arbiter = AdaptiveArbiter(
            4, candidates=("lru",), sample_shift=0, epoch_length=1 << 20
        )
        arbiter.run_stream([1, 2] * 4)  # two cold misses, six hits
        record = arbiter.close_epoch()
        assert record.scores == {"lru": 6 / 8 - LINE_COST * 4 / 8}
        assert record.live_score == 6 / 8 - LINE_COST * 4 / 8

    def test_min_samples_guard_blocks_decisions(self):
        arbiter = AdaptiveArbiter(
            32,
            candidates=("lru", "lfu"),
            sample_shift=16,  # nearly nothing sampled
            epoch_length=256,
            min_samples=8,
        )
        arbiter.run_stream(self.lfu_friendly_keys(4_000))
        assert arbiter.switches == 0

    def test_switch_after_outgrowing_the_tracker_builds_a_valid_cot(self):
        # The tracker is sized at construction (4 x 64 lines); a later
        # switch to CoT at 512 lines grows the incoming tracker with it.
        arbiter = AdaptiveArbiter(
            64, candidates=("lru", "cot"), initial="lru",
            sample_shift=0, epoch_length=256,
        )
        arbiter.resize(512)
        arbiter.run_stream(zipf_keys(200_000, key_space=100_000, theta=0.99, seed=3))
        assert arbiter.live_name == "cot"
        live = arbiter.live_policy
        assert (live.capacity, live.tracker_capacity) == (512, 513)
        live.check_invariants()

    def test_close_epoch_flush(self):
        arbiter = AdaptiveArbiter(8, candidates=("lru",), epoch_length=1 << 20)
        assert arbiter.close_epoch() is None
        arbiter.lookup(1)
        record = arbiter.close_epoch()
        assert isinstance(record, ArbiterEpoch)
        assert record.samples == arbiter.samples
        assert arbiter.close_epoch() is None  # clock reset

    def test_regret_is_nonnegative_and_grows_on_bad_live(self):
        arbiter = AdaptiveArbiter(
            32,
            candidates=("lru", "lfu"),
            initial="lru",
            sample_shift=0,
            epoch_length=512,
            switch_margin=10.0,  # pinned to the losing policy
        )
        arbiter.run_stream(self.lfu_friendly_keys(8_000))
        assert arbiter.regret > 0

    def test_shadow_hit_rates_exposed_per_candidate(self):
        arbiter = AdaptiveArbiter(
            32, candidates=("lru", "lfu"), sample_shift=0, epoch_length=512
        )
        arbiter.run_stream(zipf_keys(2_000))
        rates = arbiter.shadow_hit_rates()
        assert set(rates) == {"lru", "lfu"}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())


class TestWarmHandoff:
    @staticmethod
    def force_switch(arbiter, to_name="lfu"):
        record = None
        for _ in range(200):
            arbiter.run_stream(
                TestArbitration.lfu_friendly_keys(arbiter.epoch_length)
            )
            if arbiter.live_name == to_name:
                record = arbiter
                break
        assert record is not None, "arbiter never switched"

    def test_incoming_policy_is_seeded_from_outgoing(self):
        arbiter = AdaptiveArbiter(
            32, candidates=("lru", "lfu"), initial="lru",
            sample_shift=0, epoch_length=512,
        )
        keys = TestArbitration.lfu_friendly_keys(8_000)
        # stop right before the first switch to capture the outgoing set
        first_switch = None
        probe = AdaptiveArbiter(
            32, candidates=("lru", "lfu"), initial="lru",
            sample_shift=0, epoch_length=512,
        )
        probe.run_stream(keys)
        first_switch = next(
            i for i, r in enumerate(probe.history) if r.switched_to
        )
        boundary = (first_switch + 1) * 512
        arbiter.run_stream(keys[:boundary])
        outgoing_keys = set(arbiter.live_policy.cached_keys())
        arbiter.run_stream(keys[boundary : boundary + 512])
        assert arbiter.live_name == "lfu"
        live_keys = set(arbiter.live_policy.cached_keys())
        # the handoff seeded the incoming policy; subsequent accesses may
        # have churned some entries, but the sets must overlap heavily
        assert outgoing_keys & live_keys

    def test_dropped_keys_notify_eviction_listeners(self):
        evicted = []
        arbiter = AdaptiveArbiter(
            32, candidates=("lru", "lfu"), initial="lru",
            sample_shift=0, epoch_length=512,
        )
        arbiter.eviction_listeners.append(lambda key: evicted.append(key))
        cached_before = set()

        keys = TestArbitration.lfu_friendly_keys(12_000)
        for start in range(0, len(keys), 512):
            cached_before = set(arbiter.cached_keys())
            arbiter.run_stream(keys[start : start + 512])
            if arbiter.switches:
                break
        assert arbiter.switches >= 1
        # every key that silently left the cache during the handoff (or
        # was evicted by the live policy) was reported
        gone = cached_before - set(arbiter.cached_keys())
        assert gone <= set(evicted)

    def test_listeners_keep_firing_after_switch(self):
        evicted = []
        arbiter = AdaptiveArbiter(
            4, candidates=("lru", "lfu"), initial="lru",
            sample_shift=0, epoch_length=512,
        )
        TestWarmHandoff.force_switch(arbiter)
        evicted.clear()
        arbiter.eviction_listeners.append(lambda key: evicted.append(key))
        for i in range(50_000, 50_020):  # tiny cache: must evict
            if arbiter.lookup(i) is MISSING:
                arbiter.admit(i, i)
        assert evicted

    def test_cot_warm_seed_admits_despite_admission_filter(self):
        outgoing = LRUCache(16)
        for i in range(16):
            outgoing.admit(i, i)
        cot = CoTCache(16, tracker_capacity=64)
        cot.warm_seed(outgoing.cached_items())
        assert len(cot) == 16
        assert set(cot.cached_keys()) == set(range(16))


class TestBatchScalarEquivalence:
    def test_run_stream_matches_per_access_loop(self):
        keys = zipf_keys(30_000, key_space=5_000, theta=1.1, seed=11)

        def build():
            return AdaptiveArbiter(
                128,
                tracker_capacity=512,
                epoch_length=1_024,
                sample_shift=3,
                initial="lru",
            )

        batch = build()
        batch.run_stream(keys)
        scalar = build()
        for key in keys:
            if scalar.lookup(key) is MISSING:
                scalar.admit(key, key)
        assert batch.live_name == scalar.live_name
        assert batch.switches == scalar.switches
        assert batch.epochs == scalar.epochs
        assert batch.samples == scalar.samples
        assert batch.stats.hits == scalar.stats.hits
        assert batch.stats.misses == scalar.stats.misses
        batch_path = [r.live for r in batch.history]
        scalar_path = [r.live for r in scalar.history]
        assert batch_path == scalar_path


class UnbufferedArbiter(AdaptiveArbiter):
    """The arbiter's access path written out per access: every access
    counts down the epoch's room and every sampled one goes straight into
    each shadow through the base class's scalar ``run_stream`` — sampled
    by :func:`sample_hash`, no memo, no tap. Arbitration (epoch close,
    scoring, switching) is inherited, so a divergence is the tap's."""

    def _access(self, key):
        if self._room == 0:
            self._close_epoch()
        self._room -= 1
        if self._sampled_key(key):
            self._epoch_samples += 1
            self._samples += 1
            for shadow in self._shadows.values():
                CachePolicy.run_stream(shadow, [key])

    def _sampled_key(self, key):
        return sample_hash(key) & self._sample_mask == 0

    def lookup(self, key):
        self._access(key)
        return self._live.lookup(key)

    def get_or_admit(self, key, loader):
        self._access(key)
        return self._live.get_or_admit(key, loader)

    def run_stream(self, keys):
        for key in keys:
            self.get_or_admit(key, lambda k: k)

    def invalidate(self, key):
        self._live.invalidate(key)
        if self._sampled_key(key):
            for shadow in self._shadows.values():
                shadow.invalidate(key)

    def record_update(self, key):
        self._live.record_update(key)
        if self._sampled_key(key):
            for shadow in self._shadows.values():
                shadow.record_update(key)


def arbiter_state(arbiter):
    return {
        "live": arbiter.live_name,
        "history": arbiter.history,
        "switches": arbiter.switches,
        "regret": arbiter.regret,
        "samples": arbiter.samples,
        "stats": arbiter.stats,
        "cached": list(arbiter.cached_keys()),
        "shadows": {
            name: (list(shadow.cached_keys()), shadow.stats)
            for name, shadow in arbiter._shadows.items()
        },
    }


class TestTapDifferential:
    """Seeded interleavings of every entry point against the unbuffered
    reference: the tap and its drain must be unobservable."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["int", "str"])
    def test_matches_unbuffered_reference(self, seed, kind):
        rng = random.Random(seed)
        universe = zipf_keys(6_000, key_space=1_500, theta=1.0, seed=seed)
        if kind == "str":
            universe = [f"usertable:{k}" for k in universe]

        def build(cls):
            return cls(
                48, tracker_capacity=192, epoch_length=97, sample_shift=2,
                switch_margin=0.0, min_samples=4,
            )

        tapped, reference = build(AdaptiveArbiter), build(UnbufferedArbiter)
        both = (tapped, reference)
        position = 0

        def draw():
            nonlocal position
            position = (position + 1) % len(universe)
            return universe[position]

        for _step in range(1_500):
            op = rng.random()
            if op < 0.35:
                key = draw()
                got = [a.get_or_admit(key, lambda k: ("v", k)) for a in both]
                assert got[0] == got[1]
            elif op < 0.65:
                key = draw()
                for arbiter in both:
                    if arbiter.lookup(key) is MISSING:
                        arbiter.admit(key, ("v", key))
            elif op < 0.80:
                chunk = [draw() for _ in range(rng.randrange(1, 300))]
                for arbiter in both:
                    arbiter.run_stream(chunk)
            elif op < 0.86:
                key = universe[rng.randrange(len(universe))]
                for arbiter in both:
                    arbiter.invalidate(key)
            elif op < 0.92:
                key = universe[rng.randrange(len(universe))]
                for arbiter in both:
                    arbiter.record_update(key)
            elif op < 0.94:
                capacity = rng.randrange(16, 96)
                for arbiter in both:
                    arbiter.resize(capacity)
            elif op < 0.96:
                records = [arbiter.close_epoch() for arbiter in both]
                assert records[0] == records[1]
            elif op < 0.98:
                assert tapped.samples == reference.samples
            else:
                assert tapped.shadow_hit_rates() == reference.shadow_hit_rates()
        assert arbiter_state(tapped) == arbiter_state(reference)
        # the interleaving must have reached the decisions it checks
        assert reference.epochs > 50 and reference.switches > 0


class TestEngineAxis:
    def arbitrated_spec(self, **overrides):
        defaults = dict(
            scale=Scale.tiny(),
            workload=WorkloadSpec(dist="zipf-1.2"),
            policy=PolicySpec(
                name="lru",
                cache_lines=32,
                tracker_lines=128,
                arbitration=ArbitrationSpec(
                    epoch_length=512, sample_shift=1
                ),
            ),
            accesses=6_000,
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_policy_spec_defaults_to_no_arbitration(self):
        spec = PolicySpec(name="lru", cache_lines=32)
        assert spec.arbitration is None
        assert not isinstance(spec.build(0), AdaptiveArbiter)

    def test_enabled_arbitration_starts_from_spec_policy(self):
        spec = PolicySpec(
            name="cot",
            cache_lines=32,
            tracker_lines=128,
            arbitration=ArbitrationSpec(),
        )
        policy = spec.build(0)
        assert isinstance(policy, AdaptiveArbiter)
        assert policy.live_name == "cot"
        assert policy.capacity == 32

    def test_initial_outside_candidates_falls_back_to_first(self):
        spec = PolicySpec(
            name="perfect",  # not in the candidate set
            cache_lines=32,
            arbitration=ArbitrationSpec(),
        )
        policy = spec.build(0)
        assert isinstance(policy, AdaptiveArbiter)
        assert policy.live_name == "lru"

    def test_stream_runner_publishes_adaptive_counters(self):
        result = PolicyStreamRunner().run(self.arbitrated_spec())
        counters = result.telemetry.counters
        assert counters["adaptive.epochs"] >= 1
        assert counters["adaptive.shadow_samples"] > 0
        assert "adaptive.switches" in counters
        assert "adaptive.regret" in result.telemetry.gauges
        shadow_gauges = [
            name
            for name in result.telemetry.gauges
            if name.startswith("adaptive.shadow_hit_rate.")
        ]
        assert len(shadow_gauges) == len(result.policy.candidates)

    def test_stream_runner_without_arbitration_publishes_none(self):
        spec = self.arbitrated_spec(
            policy=PolicySpec(name="lru", cache_lines=32)
        )
        result = PolicyStreamRunner().run(spec)
        assert not any(
            name.startswith("adaptive.") for name in result.telemetry.counters
        )
        assert not any(
            name.startswith("adaptive.") for name in result.telemetry.gauges
        )

    def test_cluster_runner_publishes_adaptive_counters(self):
        result = ClusterRunner().run(self.arbitrated_spec(accesses=4_000))
        counters = result.telemetry.counters
        assert counters["adaptive.epochs"] >= 1
        assert all(
            isinstance(client.policy, AdaptiveArbiter)
            for client in result.front_ends
        )

    def test_spec_with_arbitration_is_spawn_safe(self):
        spec = self.arbitrated_spec()
        assert spawn_safe(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.policy.arbitration == spec.policy.arbitration

    def test_arbitration_spec_validation_happens_at_build(self):
        spec = PolicySpec(
            name="lru",
            cache_lines=32,
            arbitration=ArbitrationSpec(epoch_length=0),
        )
        with pytest.raises(ConfigurationError):
            spec.build(0)
