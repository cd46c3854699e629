"""The ladder's own tests: determinism, oracle, span accounting, names, teardown.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ladder/tests -q``.
Everything runs at ``--seconds 0.2`` (a fiftieth of the nominal sizes).
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import child
import compare
import run
from repro.policies.base import MISSING
from workloads import WORKLOADS, Pipelined, build, payload_of

SECONDS = 0.2
LOCKSTEP = [name for name in WORKLOADS if name != "net-pipelined"]


def measure(name, seed, mode, tmp_path):
    return child.measure(name, seed, SECONDS, mode, 1.0, str(tmp_path))["metrics"]


def ladder_processes():
    """Pids of live ladder children and server processes (not this one)."""
    found = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue
        if "ladder/child.py" in cmdline or "ladder/netserver.py" in cmdline:
            found.add(int(pid))
    return found


def own_listeners():
    """Inodes of this process's listening TCP sockets."""
    listening = set()
    with open("/proc/net/tcp") as handle:
        for line in list(handle)[1:]:
            fields = line.split()
            if fields[3] == "0A":
                listening.add(fields[9])
    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            mine.add(target[8:-1])
    return mine


@pytest.mark.parametrize("name", LOCKSTEP)
def test_same_seed_repeats_every_count(name, tmp_path):
    first = measure(name, 7, "run", tmp_path)
    again = measure(name, 7, "run", tmp_path)
    traced = measure(name, 7, "trace", tmp_path)
    for metric in compare.EXACT:
        assert first[metric] == again[metric], metric
        # the proxies of the traced run must not change a single decision
        assert first[metric] == traced[metric], metric
    assert first["error_rate"] == 0


def test_pipelined_counts_and_oracle(tmp_path):
    first = measure("net-pipelined", 7, "run", tmp_path)
    again = measure("net-pipelined", 7, "run", tmp_path)
    for metric in compare.EXACT_PIPELINED:
        assert first[metric] == again[metric], metric
    assert first["frontend_hit_ratio"] == first["storage_reads_per_op"] == 0


@pytest.mark.parametrize("name", ["read-skewed", "mixed-write"])
def test_seed_selects_the_stream(name):
    blocks = []
    for seed in (3, 3, 4):
        workload = build(name, seed)
        try:
            blocks.append(workload.make_block(200))
        finally:
            workload.close()
    assert blocks[0] == blocks[1]
    assert blocks[0] != blocks[2]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_reconcile(name, tmp_path):
    metrics = measure(name, 5, "trace", tmp_path)
    assert 0.9 <= metrics["trace.reconcile_ratio"] <= 1.1
    assert sum(metrics["trace.self_ns_share"].values()) == pytest.approx(1.0)
    with open(tmp_path / f"trace-{name}.json") as handle:
        trace = json.load(handle)
    assert trace["columns"] == ["name", "start_ns", "end_ns", "parent", "request_id"]
    assert all(end >= start for _n, start, end, _p, _r in trace["spans"])


def test_oracle_trips_on_a_wrong_value():
    workload, twin = build("mixed-write", 9), build("mixed-write", 9)
    try:
        items = workload.make_block(500)
        results = workload.run(items)
        assert workload.check(items, results) == 0
        reads = [i for i, result in enumerate(results) if result is not None]
        results[reads[0]] = ("value-of", "usertable:wrong", 0)
        results[reads[-1]] = None
        assert twin.check(items, results) == 2  # the twin's oracle is still fresh
    finally:
        workload.close()
        twin.close()
    keys = ["usertable:1", "usertable:2"]
    assert Pipelined.check(None, keys, [payload_of(keys[0]), MISSING]) == 0
    assert Pipelined.check(None, keys, [payload_of(keys[1]), MISSING]) == 1


def test_wrong_reads_fail_the_run(monkeypatch, capsys):
    def one_bad_read(workload, seed, seconds, trace):
        metrics = {m["name"]: 1.0 for m in run.declaration()["end_to_end"]}
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
                "attempted": 100, "failed": 1, "metrics": metrics}

    monkeypatch.setattr(run, "run_workload", one_bad_read)
    assert run.main(["--workload", "read-uniform"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_the_declaration(trace):
    declared = run.declaration()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [w["why"] for w in WORKLOADS.values()]
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "net-sync",
         "--seed", "2", "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    expected = declared["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert [line.split()[1] for line in table] == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failing_runs_leave_nothing_behind():
    before = ladder_processes()
    listeners = own_listeners()
    threads = threading.active_count()
    # a child killed by the hard timeout, server process and all
    with pytest.raises(run.LadderError):
        run.run_child("net-pipelined", 1, 10.0, "run", time.monotonic() + 1.5)
    # a run that raises in the middle of a block, in this process
    for name in ("net-sync", "net-pipelined"):
        workload = build(name, 1)
        try:
            with pytest.raises(ZeroDivisionError):
                workload.run(workload.make_block(50))
                1 / 0
        finally:
            workload.close()
    deadline = time.monotonic() + 5
    while ladder_processes() - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ladder_processes() - before == set()
    assert own_listeners() == listeners
    assert threading.active_count() == threads
