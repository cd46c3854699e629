"""The perf gate's judgement, on synthetic readings: nothing here is timed.

``benchmarks/run_perf_gate.py`` owns the rows and the pure ``judge`` /
``check`` pair that turns a reading into a verdict; this loads it the
way ``tests/test_miss_path_frames.py`` loads its bench file and feeds it
made-up numbers, so a verdict rule cannot change unnoticed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "run_perf_gate.py"
_spec = importlib.util.spec_from_file_location("run_perf_gate", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

ROWS = {row.name: row for row, _measure in gate.ROWS}


def verdict(name: str, reading: dict | None, cpus: int = 8) -> str:
    return gate.judge(ROWS[name], reading, cpus)


def test_the_table_keeps_every_check_at_its_bound():
    assert len(gate.RATES) == 13
    assert gate.RATE_FLOOR == 0.75
    assert {name: (row.better, row.bound) for name, row in ROWS.items()} == {
        "parallel_speedup@4": ("higher", 2.0),
        "write_through_overhead": ("lower", 1.5),
        "write_behind_speedup": ("higher", 1.3),
        "tracing_overhead": ("lower", 0.05),
        "arbiter_overhead": ("lower", 0.15),
    }


def test_a_rate_under_its_floor_fails():
    row = gate.rate_row("policy_lookup_admit[cot]", {"policy_lookup_admit[cot]": 1_000_000.0})
    assert row.bound == 750_000.0
    assert gate.judge(row, {"value": 740_000.0}, 2) == "FAIL"
    assert gate.judge(row, {"value": 760_000.0}, 2) == "ok"


def test_a_rate_without_a_baseline_value_fails():
    assert gate.judge(gate.rate_row("tracker_track", {}), {"value": 1e9}, 8).startswith("FAIL")


def test_an_overhead_over_its_bound_fails():
    assert verdict("tracing_overhead", {"value": 0.051}) == "FAIL"
    assert verdict("tracing_overhead", {"value": 0.049}) == "ok"
    assert verdict("arbiter_overhead", {"value": 0.151}) == "FAIL"


def test_a_baseline_row_missing_from_the_run_fails(capsys):
    baseline = {"tracker_track": 1_000.0, "bench_spacesaving_offer": 1_000.0}
    rows = [gate.rate_row("tracker_track", baseline)]
    readings = {"tracker_track": {"value": 1_000.0}}
    assert gate.check(rows, readings, baseline, 2) == 1
    lost = [line for line in capsys.readouterr().out.splitlines() if "bench_spacesaving_offer" in line]
    assert len(lost) == 1 and "FAIL" in lost[0]
    assert gate.check(rows, readings, {"tracker_track": 1_000.0}, 2) == 0
    assert gate.check(rows, {}, {"tracker_track": 1_000.0}, 2) == 1


def test_scaling_is_skipped_under_four_cpus_but_determinism_is_not():
    fast = {"value": 3.0, "mismatches": 0}
    slow = {"value": 1.1, "mismatches": 0}
    assert verdict("parallel_speedup@4", slow, cpus=2).startswith("skipped")
    assert verdict("parallel_speedup@4", slow, cpus=4) == "FAIL"
    assert verdict("parallel_speedup@4", fast, cpus=4) == "ok"
    for cpus in (2, 4):
        assert verdict("parallel_speedup@4", {**fast, "mismatches": 1}, cpus=cpus).startswith("FAIL")


def test_write_behind_fails_on_a_lost_write_or_an_overfull_buffer():
    held = {"value": 6.0, "lost_writes": 0, "peak_dirty": 64}
    assert verdict("write_behind_speedup", held) == "ok"
    assert verdict("write_behind_speedup", {**held, "lost_writes": 1}).startswith("FAIL")
    assert verdict("write_behind_speedup", {**held, "peak_dirty": 65}).startswith("FAIL")
    assert verdict("write_behind_speedup", {**held, "value": 1.2}) == "FAIL"


def test_a_passing_run_exits_zero(capsys):
    baseline = {name: 1.0 for name in gate.RATES}
    readings = {name: {"value": 1.0} for name in gate.RATES}
    readings.update(
        (name, {"value": row.bound, "mismatches": 0, "lost_writes": 0, "peak_dirty": 0})
        for name, row in ROWS.items()
    )
    rows = [gate.rate_row(name, baseline) for name in gate.RATES] + list(ROWS.values())
    assert gate.check(rows, readings, baseline, 4) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_recording_a_label_again_folds_the_run_into_a_median():
    entries = [{"label": "old", "results": {}}]
    gate.fold(entries, "base", {"calib_ms": 60.0, "rows": {"tracker_track": 3.0}})
    gate.fold(entries, "base", {"calib_ms": 90.0, "rows": {"tracker_track": 1.0}})
    gate.fold(entries, "base", {"calib_ms": 70.0, "rows": {"tracker_track": 2.5}})
    assert [entry["label"] for entry in entries] == ["old", "base"]
    assert entries[-1]["calib_ms"] == 70.0
    assert entries[-1]["rows"] == {"tracker_track": 2.5}
    assert len(entries[-1]["runs"]) == 3
    gate.fold(entries, "next", {"calib_ms": 80.0, "rows": {"tracker_track": 9.0}})
    assert [entry["label"] for entry in entries] == ["old", "base", "next"]
    assert entries[-1]["rows"] == {"tracker_track": 9.0}
