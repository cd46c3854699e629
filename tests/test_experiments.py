"""Smoke + shape tests for the experiment harnesses (tiny scales).

Each harness must (a) run end to end, (b) emit well-formed rows, and
(c) show the paper's qualitative shape even at test scale.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    appendix_tracker_size,
    fig3_cache_size_sweep,
    fig4_hit_rates,
    fig5_end_to_end,
    fig6_single_client,
    fig78_adaptive_resizing,
    table2_min_cache,
    ycsb_bug,
)
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    make_generator,
    mean_confidence,
)


def tiny(accesses=20_000, key_space=5_000, clients=2) -> Scale:
    return Scale(
        "tiny",
        key_space=key_space,
        accesses=accesses,
        num_clients=clients,
        num_servers=4,
    )


class TestCommon:
    def test_scale_presets(self):
        assert Scale.named("smoke").name == "smoke"
        assert Scale.named("paper").key_space == 1_000_000
        with pytest.raises(ExperimentError):
            Scale.named("galactic")

    def test_make_generator(self):
        assert make_generator("uniform", 10, 1).name == "uniform"
        assert make_generator("zipf-1.2", 10, 1).theta == pytest.approx(1.2)
        with pytest.raises(ExperimentError):
            make_generator("pareto-9", 10, 1)

    def test_mean_confidence(self):
        mean, ci = mean_confidence([2.0, 4.0, 6.0])
        assert mean == 4.0
        assert ci > 0
        mean, ci = mean_confidence([5.0])
        assert (mean, ci) == (5.0, 0.0)
        with pytest.raises(ExperimentError):
            mean_confidence([])

    def test_result_render_and_column(self):
        result = ExperimentResult("x", "T", ["a", "b"], [[1, 2]], notes=["n"])
        text = result.render()
        assert "T" in text and "note: n" in text
        assert result.column("b") == [2]


class TestFig3:
    def test_shape(self):
        result = fig3_cache_size_sweep.run(tiny(), sizes=[0, 8, 64])
        assert result.headers[0] == "cache_lines"
        imbalances = result.column("load_imbalance")
        # More cache-lines monotonically (at this granularity) reduce
        # imbalance, and relative load shrinks below the no-cache baseline.
        assert imbalances[0] > imbalances[-1]
        relative = result.column("relative_server_load")
        assert relative[0] == 1.0
        assert relative[-1] < 0.7


class TestFig4:
    def test_cot_tracks_tpc_and_beats_lru(self):
        result = fig4_hit_rates.run(theta=1.2, scale=tiny(), sizes=[8, 32])
        cot = result.column("cot")
        lru = result.column("lru")
        tpc = result.column("tpc")
        for cot_rate, lru_rate, tpc_rate in zip(cot, lru, tpc):
            assert cot_rate > lru_rate
            assert cot_rate == pytest.approx(tpc_rate, abs=8.0)

    def test_run_all_covers_three_skews(self):
        results = fig4_hit_rates.run_all(
            scale=tiny(accesses=5_000, key_space=2_000)
        )
        assert [r.extras["theta"] for r in results] == [0.90, 0.99, 1.2]


class TestTable2:
    def test_qualitative_order(self):
        result = table2_min_cache.run(tiny(accesses=30_000))
        assert result.headers[:2] == ["dist", "no_cache_imbalance"]
        for row in result.rows:
            no_cache = row[1]
            assert no_cache > 1.0
            lru, cot = row[2], row[6]
            if isinstance(lru, int) and isinstance(cot, int):
                assert cot <= lru  # CoT never needs more lines than LRU


class TestFig5AndFig6:
    def test_fig5_shape(self):
        result = fig5_end_to_end.run(
            tiny(accesses=8_000), repetitions=1
        )
        assert result.headers == ["policy", "uniform", "zipf-0.99", "zipf-1.2"]
        by_policy = {row[0]: row for row in result.rows}

        def runtime(cell: str) -> float:
            return float(cell.split("±")[0])

        # Without caches, skew costs runtime; CoT removes most of it.
        assert runtime(by_policy["none"][3]) > runtime(by_policy["none"][1])
        assert runtime(by_policy["cot"][3]) < runtime(by_policy["none"][3])

    def test_fig6_single_client(self):
        result = fig6_single_client.run(
            tiny(accesses=8_000), repetitions=1
        )
        assert len(result.rows) == 6  # none + 5 policies


class TestFig78:
    def test_expand_emits_epoch_series(self):
        result = fig78_adaptive_resizing.run_expand(
            tiny(accesses=30_000, key_space=2_000)
        )
        assert result.headers[0] == "epoch"
        assert len(result.rows) >= 3

    def test_shrink_reduces_cache(self):
        result = fig78_adaptive_resizing.run_shrink(
            tiny(accesses=40_000, key_space=2_000)
        )
        caches = result.column("cache")
        assert caches[-1] <= caches[0]

    # At 400k accesses both searches complete (smoke's 60k end Figure 7
    # before its target), so the runs' own checks must pass.
    def test_expand_shape_holds_at_400k_accesses(self):
        scale = Scale.smoke().scaled(accesses=400_000, num_clients=1)
        result = fig78_adaptive_resizing.run_expand(scale)
        fig78_adaptive_resizing.check_expand(result)

    def test_shrink_shape_holds_at_400k_accesses(self):
        scale = Scale.smoke().scaled(accesses=400_000, num_clients=1)
        result = fig78_adaptive_resizing.run_shrink(scale)
        fig78_adaptive_resizing.check_shrink(result)

    def test_a_missed_shape_raises_naming_it(self):
        headers = ["epoch", "cache", "tracker", "decision"]
        rows = [[0, 64, 256, "reset_ratio"], [1, 64, 128, "none"]]
        result = ExperimentResult("fig8", "T", headers, rows)
        result.extras["final_cache"] = 64
        with pytest.raises(ExperimentError, match="the cache halves") as excinfo:
            fig78_adaptive_resizing.check_shrink(result)
        assert "ratio resets" not in str(excinfo.value)


class TestAppendixAndBug:
    def test_tracker_size_monotone_gains(self):
        result = appendix_tracker_size.run(
            tiny(accesses=20_000, key_space=2_000), sizes=[3, 15]
        )
        for row in result.rows:
            rates = row[1:]
            # Hit rate never decreases materially as the tracker grows.
            for earlier, later in zip(rates, rates[1:]):
                assert later >= earlier - 1.0

    def test_ycsb_bug_quantified(self):
        result = ycsb_bug.run(tiny(accesses=30_000, key_space=2_000))
        for row in result.rows:
            fitted_honest, fitted_scrambled = row[1], row[2]
            head_honest, head_scrambled = row[3], row[4]
            assert head_honest > head_scrambled
        # Scrambled skew is pinned: identical across requested values.
        scrambled_column = result.column("fitted_s_scrambled")
        assert len(set(scrambled_column)) == 1


class TestCLI:
    def test_main_smoke(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["ycsb-bug", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "ScrambledZipfian" in out
        assert "completed" in out

    def test_main_restores_the_fabric_worker_count(self, capsys):
        """``--parallel N`` lasts for the invocation, not the process."""
        from repro.engine.parallel import configured_workers, parallel_workers
        from repro.experiments.__main__ import main

        with parallel_workers(1):
            assert main(["ycsb-bug", "--scale", "smoke", "--parallel", "2"]) == 0
            assert configured_workers() == 1

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["unknown-experiment"])

    def test_main_requires_experiment_or_list(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main([])

    def test_list_enumerates_registry(self, capsys):
        from repro.engine import experiment_ids
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert [line.split()[0] for line in lines] == list(experiment_ids())
        # every line carries the registered description, not just the id
        assert all(len(line.split(None, 1)) == 2 for line in lines)


class TestRegistry:
    def test_canonical_order(self):
        from repro.engine import experiment_ids

        ids = list(experiment_ids())
        assert ids[:5] == ["fig3", "fig4", "table2", "fig5", "fig6"]
        assert set(ids) >= {"fig7", "fig8", "figA", "ycsb-bug", "ext-chaos"}

    def test_duplicate_registration_rejected(self):
        from repro.engine import register_experiment
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            register_experiment("fig3", "dup", lambda scale: None, order=10)

    def test_unknown_experiment_rejected(self):
        from repro.engine import get_experiment
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            get_experiment("fig99")
