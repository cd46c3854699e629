"""Integration tests for the elastic CoT front end (Figures 7-8 logic)."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import CacheCluster
from repro.core.decay import HalfLifeDecay
from repro.core.elastic import ElasticCoTClient
from repro.core.resizing import DecisionKind, Phase, ResizeDecision
from repro.errors import ConfigurationError
from repro.workloads.base import format_key
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator


def small_cluster() -> CacheCluster:
    return CacheCluster(num_servers=4, virtual_nodes=256, value_size=1)


def drive(client, generator, n):
    for key in generator.keys(n):
        client.get(format_key(key))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElasticCoTClient(small_cluster(), base_epoch=0)

    def test_initial_sizes(self):
        client = ElasticCoTClient(
            small_cluster(), initial_cache=2, initial_tracker=4
        )
        assert client.converged_sizes() == (2, 4)
        assert client.cot is client.policy


class TestEpochLoop:
    def test_epoch_closes_every_e_accesses(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=100)
        gen = UniformGenerator(1000, seed=1)
        drive(client, gen, 350)
        assert client.epoch_index == 3
        assert len(client.history) == 3

    def test_epoch_length_tracks_tracker(self):
        """Algorithm 3 line 4: E = max(E, K)."""
        client = ElasticCoTClient(small_cluster(), base_epoch=10)
        client.cot.set_sizes(64, 256)
        assert client.epoch_length == 256

    def test_manual_close_flushes_partial_epoch(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=1000)
        gen = UniformGenerator(100, seed=2)
        drive(client, gen, 50)
        record = client.close_epoch()
        assert record.snapshot.accesses == 50
        assert client.epoch_index == 1

    def test_history_rows_have_expected_fields(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=50)
        drive(client, UniformGenerator(100, seed=3), 120)
        row = client.history[0].as_row()
        for field in ("epoch", "cache", "tracker", "I_c", "alpha_c", "decision"):
            assert field in row

    def test_writes_count_toward_epoch(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=10)
        for i in range(10):
            client.set(format_key(i), i)
        assert client.epoch_index == 1

    def test_deletes_count_toward_epoch(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=5)
        for i in range(5):
            client.delete(format_key(i))
        assert client.epoch_index == 1


class ScriptedController:
    """Resizes to the next ``(C, K)`` of a fixed schedule every epoch."""

    phase = Phase.STEADY
    alpha_target = 1.0

    def __init__(self, schedule):
        self.schedule = schedule
        self.observed = 0

    def observe(self, snapshot):
        cache, tracker = self.schedule[self.observed % len(self.schedule)]
        self.observed += 1
        return ResizeDecision(DecisionKind.EXPAND, cache, tracker)


class TestEpochBoundaries:
    """An epoch closes after exactly ``max(base_epoch, K)`` gets, sets and
    deletes, with the ``K`` in force when it opened, while the controller
    resizes ``K`` under it; a hand-called ``close_epoch`` records the
    partial count and restarts it. Checked op by op against a counting
    loop."""

    BASE_EPOCH = 30
    SCHEDULE = [(4, 64), (8, 200), (2, 5), (16, 40), (3, 31), (2, 4)]

    @pytest.mark.parametrize("seed", range(4))
    def test_epochs_close_where_a_counting_loop_says(self, seed):
        rng = random.Random(seed)
        client = ElasticCoTClient(
            small_cluster(), initial_cache=2, initial_tracker=4,
            base_epoch=self.BASE_EPOCH,
            controller=ScriptedController(self.SCHEDULE),  # type: ignore[arg-type]
        )
        # The reference: a count of accesses and the K each epoch opened with.
        tracker, count, closed = 4, 0, 0
        expected: list[tuple[int, int, int]] = []

        def close() -> None:
            nonlocal tracker, count, closed
            expected.append((closed, count, tracker))
            tracker = self.SCHEDULE[closed % len(self.SCHEDULE)][1]
            closed, count = closed + 1, 0

        for step in range(4_000):
            if rng.random() < 0.004:
                record = client.close_epoch()
                assert record.snapshot.accesses == count
                close()
                continue
            key = format_key(rng.randrange(50))
            op = rng.random()
            if op < 0.6:
                client.get(key)
            elif op < 0.85:
                client.set(key, step)
            else:
                client.delete(key)
            count += 1
            if count == max(self.BASE_EPOCH, tracker):
                close()
            assert client.epoch_index == closed, f"step {step}"
        observed = [
            (r.snapshot.index, r.snapshot.accesses, r.snapshot.tracker_capacity)
            for r in client.history
        ]
        assert observed == expected
        assert {count for _i, count, _k in expected} > {30, 31, 40, 64, 200}
        assert client.epoch_length == max(self.BASE_EPOCH, tracker)


class TestElasticBehaviour:
    def test_expands_under_skew(self):
        """A skewed workload with a violated target must grow the cache."""
        client = ElasticCoTClient(
            small_cluster(),
            target_imbalance=1.1,
            initial_cache=2,
            initial_tracker=4,
            base_epoch=500,
        )
        drive(client, ZipfianGenerator(5_000, theta=1.4, seed=4), 60_000)
        cache, tracker = client.converged_sizes()
        assert cache > 2
        assert tracker >= 2 * cache

    def test_shrinks_after_switch_to_uniform(self):
        client = ElasticCoTClient(
            small_cluster(),
            target_imbalance=1.2,
            initial_cache=2,
            initial_tracker=4,
            base_epoch=500,
        )
        drive(client, ZipfianGenerator(5_000, theta=1.4, seed=5), 60_000)
        grown, _ = client.converged_sizes()
        drive(client, UniformGenerator(5_000, seed=6), 120_000)
        shrunk, _ = client.converged_sizes()
        assert shrunk < grown

    def test_decay_decision_reaches_decay_policy(self):
        """A DECAY decision from the controller must run the decay policy
        and halve tracked hotness (client wiring; the controller's Case-2
        logic is covered in test_resizing_controller)."""
        class AlwaysDecay:
            phase = Phase.STEADY
            alpha_target = 1.0

            def observe(self, snapshot):
                return ResizeDecision(
                    DecisionKind.DECAY,
                    snapshot.cache_capacity,
                    snapshot.tracker_capacity,
                    decay=True,
                )

        decay = HalfLifeDecay()
        client = ElasticCoTClient(
            small_cluster(), base_epoch=100, decay=decay,
            controller=AlwaysDecay(),  # type: ignore[arg-type]
        )
        gen = UniformGenerator(50, seed=7)
        drive(client, gen, 100)
        assert decay.triggers == 1
        drive(client, gen, 100)
        assert decay.triggers == 2

    def test_windowed_imbalance_uses_recent_epochs(self):
        client = ElasticCoTClient(small_cluster(), base_epoch=50)
        drive(client, UniformGenerator(200, seed=8), 200)
        imbalance, sample = client._windowed_imbalance()
        assert imbalance >= 1.0
        assert sample > 0

    def test_repr(self):
        client = ElasticCoTClient(small_cluster(), client_id="e9")
        assert "e9" in repr(client)
