"""Tests for workload phases and hot-set rotation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, WorkloadExhausted
from repro.workloads.shift import Phase, PhasedWorkload, RotatingHotSetGenerator
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator


class TestPhasedWorkload:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PhasedWorkload([])

    def test_unbounded_middle_phase_rejected(self):
        gen = UniformGenerator(10, seed=1)
        with pytest.raises(ConfigurationError):
            PhasedWorkload([Phase(gen, None), Phase(gen, 5)])

    def test_phase_length_validation(self):
        gen = UniformGenerator(10, seed=1)
        with pytest.raises(ConfigurationError):
            Phase(gen, 0)

    def test_transitions_at_boundaries(self):
        hot = ZipfianGenerator(100, theta=1.4, seed=2)
        cold = UniformGenerator(100, seed=3)
        phased = PhasedWorkload([Phase(hot, 50), Phase(cold, None)])
        assert phased.phase_index == 0
        list(phased.keys(50))
        assert phased.phase_index == 0  # index moves on the *next* draw
        phased.next_key()
        assert phased.phase_index == 1

    def test_final_phase_unbounded(self):
        gen = UniformGenerator(10, seed=4)
        phased = PhasedWorkload([Phase(gen, None)])
        list(phased.keys(1000))  # must not exhaust
        assert phased.phase_index == 0

    def test_key_space_is_max(self):
        a = UniformGenerator(10, seed=5)
        b = UniformGenerator(50, seed=6)
        assert PhasedWorkload([Phase(a, 5), Phase(b, None)]).key_space == 50

    def test_describe(self):
        gen = UniformGenerator(10, seed=1)
        assert "phased" in PhasedWorkload([Phase(gen, None)]).describe()

    def test_total_length(self):
        gen = UniformGenerator(10, seed=1)
        assert PhasedWorkload([Phase(gen, 5), Phase(gen, 7)]).total_length == 12
        assert PhasedWorkload([Phase(gen, 5), Phase(gen, None)]).total_length is None

    def test_bounded_final_phase_exhausts_next_key(self):
        a = UniformGenerator(10, seed=1)
        b = UniformGenerator(10, seed=2)
        phased = PhasedWorkload([Phase(a, 3), Phase(b, 4)])
        drawn = [phased.next_key() for _ in range(7)]
        assert len(drawn) == 7
        assert phased.phase_index == 1
        with pytest.raises(WorkloadExhausted):
            phased.next_key()
        # The error is sticky: further draws keep raising.
        with pytest.raises(WorkloadExhausted):
            phased.next_key()

    def test_bounded_single_phase_exhausts(self):
        phased = PhasedWorkload([Phase(UniformGenerator(10, seed=3), 5)])
        list(phased.keys(5))
        with pytest.raises(WorkloadExhausted):
            phased.next_key()

    def test_phase_boundary_counts_per_generator(self):
        # Each phase generator must serve exactly its configured length:
        # draws 1-10 come from phase 0, draws 11-20 from phase 1, draw 21
        # raises. The index flips on the 11th draw, not the 10th.
        phased = PhasedWorkload(
            [
                Phase(UniformGenerator(4, seed=4), 10),
                Phase(UniformGenerator(4, seed=5), 10),
            ]
        )
        observed = []
        for _ in range(20):
            phased.next_key()
            observed.append(phased.phase_index)
        assert observed == [0] * 10 + [1] * 10
        with pytest.raises(WorkloadExhausted):
            phased.next_key()

    def test_bounded_final_phase_exhausts_keys_array(self):
        a = UniformGenerator(10, seed=6)
        b = UniformGenerator(10, seed=7)
        phased = PhasedWorkload([Phase(a, 8), Phase(b, 8)])
        arr = phased.keys_array(16)
        assert len(arr) == 16
        with pytest.raises(WorkloadExhausted):
            phased.keys_array(1)

    def test_keys_array_overrun_raises(self):
        phased = PhasedWorkload([Phase(UniformGenerator(10, seed=8), 4)])
        with pytest.raises(WorkloadExhausted):
            phased.keys_array(5)

    def test_batch_draws_match_scalar_draws(self):
        def build() -> PhasedWorkload:
            return PhasedWorkload(
                [
                    Phase(ZipfianGenerator(64, theta=1.2, seed=9), 33),
                    Phase(UniformGenerator(64, seed=10), 31),
                ]
            )

        one = build()
        scalar = [one.next_key() for _ in range(64)]
        assert list(build().keys_array(64)) == scalar


class TestRotatingHotSet:
    def test_rotation_changes_identity_not_shape(self):
        inner_a = ZipfianGenerator(100, theta=1.2, seed=7)
        inner_b = ZipfianGenerator(100, theta=1.2, seed=7)
        plain = RotatingHotSetGenerator(inner_a, offset=0)
        rotated = RotatingHotSetGenerator(inner_b, offset=10)
        keys_plain = list(plain.keys(500))
        keys_rotated = list(rotated.keys(500))
        assert keys_rotated == [(k + 10) % 100 for k in keys_plain]

    def test_rotate_accumulates_modulo(self):
        gen = RotatingHotSetGenerator(UniformGenerator(10, seed=8), offset=7)
        assert gen.rotate(5) == 2
        assert gen.offset == 2

    def test_range(self):
        gen = RotatingHotSetGenerator(ZipfianGenerator(50, seed=9), offset=49)
        assert all(0 <= k < 50 for k in gen.keys(1000))
