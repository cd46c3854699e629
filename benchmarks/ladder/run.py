"""The latency ladder: one seeded, noise-normalised benchmark of the serving path.

    python3 benchmarks/ladder/run.py --workload W --seed S --seconds N --trace 0|1 [--out FILE]

Runs workload ``W`` (all five when omitted) in fresh child processes,
checks every value read against an oracle, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
three fresh set-ups (their median is ``setup_s``), the last of which goes
on to the timed blocks. ``--trace 1`` reports the per-layer metrics: one
untraced and one traced run at a tenth of the operations. The exit code
is non-zero when a child fails, runs out of time or reads a wrong value.
See README.md in this directory for the metrics and the timing rule.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: one invocation (every child of one workload) must end within this.
HARD_TIMEOUT_S = 170.0
#: fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: share of a run's operations the traced run replays.
TRACE_OPS_SCALE = 0.1


class LadderError(RuntimeError):
    """A child process failed, timed out or printed no record."""


def declaration() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, mode: str,
              deadline: float, ops_scale: float = 1.0) -> dict[str, Any]:
    """One fresh process for one set-up (and, past ``setup`` mode, its blocks).

    The child leads its own process group, so its server process and
    anything else it started dies with it whatever happens.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every child
    child = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--mode", mode, "--ops-scale", repr(ops_scale), "--out-dir", OUT_DIR,
        ],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise LadderError(f"{workload} ({mode}): hard timeout") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise LadderError(f"{workload} ({mode}): child exited with {child.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """All children of one workload, merged into one record of raw metric values."""
    deadline = time.monotonic() + HARD_TIMEOUT_S
    if trace:
        plain = run_child(workload, seed, seconds, "run", deadline, TRACE_OPS_SCALE)
        traced = run_child(workload, seed, seconds, "trace", deadline, TRACE_OPS_SCALE)
        children = [plain, traced]
        metrics = {**plain["metrics"], **traced["metrics"]}
        metrics["trace.overhead_ratio"] = (
            traced["metrics"]["trace.ns_per_op"] * plain["metrics"]["ops_per_s"] / 1e9
        )
    else:
        children = [
            run_child(workload, seed, seconds, "setup", deadline) for _ in range(SETUPS - 1)
        ]
        children.append(run_child(workload, seed, seconds, "run", deadline))
        metrics = dict(children[-1]["metrics"])
        metrics["setup_s"] = statistics.median(child["setup_s"] for child in children)
        metrics["peak_rss_mb"] = children[-1]["peak_rss_mb"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": metrics,
        "blocks": children[-1]["blocks"],
    }


def result_line(record: dict[str, Any], declared: list[dict[str, str]]) -> dict[str, Any]:
    """The contract's result object: the declared metrics, each with its unit."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": record["metrics"][metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def append_record(path: str, record: dict[str, Any]) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w") as handle:
        json.dump({"runs": runs + [record]}, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ladder: no serving code at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    declared = declaration()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="timed seconds the operation counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to append this run's full records to")
    args = parser.parse_args(argv)
    shown = declared["per_layer"] if args.trace else declared["end_to_end"]
    status = 0
    for workload in [args.workload] if args.workload else names:
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except LadderError as error:
            print(f"ladder: {error}", file=sys.stderr)
            return 1
        result = result_line(record, shown)
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:38s} {metric['value']:>16.6g} {metric['unit']}")
        if args.out:
            append_record(args.out, record)
        if not result["correct"]:
            print(f"ladder: {workload}: {record['failed']} incorrect operations", file=sys.stderr)
            status = 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
