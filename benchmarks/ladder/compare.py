"""Compare two sets of ladder runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/ladder/compare.py A.json B.json

``A.json`` (the base: the parent commit, or the first set of an A/A
check) and ``B.json`` are files written by ``run.py --out``; each may
hold several runs. For every workload and end-to-end metric it prints
both medians, the ratio B/A, and a verdict:

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (inter-quartile range over the
  median, the wider of the two sides) exceeds the bound, so the runs
  cannot tell — unless every run of B reads better than every run of A.

Count metrics of a seeded single-client stream must repeat exactly: for
runs of the same workload, seed, seconds and trace flag on both sides,
any difference is ``regressed`` too. Exits non-zero on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

from run import declaration

#: counts that a seeded lockstep stream reproduces bit for bit.
EXACT = (
    "error_rate", "frontend_hit_ratio", "backend_imbalance", "storage_reads_per_op",
    "core.cache.insertions_per_kop", "core.cache.evictions_per_kop",
    "core.elastic.epochs", "core.elastic.resizes",
    "core.elastic.cache_lines", "core.elastic.tracker_lines",
    "cluster.backend.hit_ratio", "cluster.backend.evictions_per_kop",
    "cluster.storage.reads", "cluster.storage.writes",
)
#: with 32 interleaved workers only the per-shard request split repeats.
EXACT_PIPELINED = ("error_rate", "backend_imbalance")


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(base), statistics.median(new)
    worse_by = sign * (b - a) / a
    if max(_spread(base), _spread(new)) > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _load(path: str) -> list[dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def compare(base_runs: list[dict[str, Any]], new_runs: list[dict[str, Any]],
            declared: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """Rows of ``(workload, metric, detail, verdict)``."""
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        sides = [
            [r["metrics"] for r in runs if r["workload"] == workload and not r["trace"]]
            for runs in (base_runs, new_runs)
        ]
        if not all(sides):
            continue
        for metric in declared["end_to_end"]:
            base, new = ([m[metric["name"]] for m in side] for side in sides)
            a, b = statistics.median(base), statistics.median(new)
            detail = (
                f"A {a:12.6g}  B {b:12.6g}  B/A {b / a:6.3f} (base A, n={len(base)}/{len(new)})"
                f"  spread {max(_spread(base), _spread(new)):.3f}  bound {metric['bound']:.2f}"
            )
            rows.append((workload, metric["name"], detail,
                         verdict(base, new, metric["better"], metric["bound"])))
    def by_key(runs: list[dict[str, Any]]) -> dict[tuple, dict[str, Any]]:
        return {(r["workload"], r["seed"], r["seconds"], r["trace"]): r for r in runs}

    twins = by_key(new_runs)
    for key, run in by_key(base_runs).items():
        if key not in twins:
            continue
        names = EXACT_PIPELINED if run["workload"] == "net-pipelined" else EXACT
        differing = [n for n in names if run["metrics"][n] != twins[key]["metrics"][n]]
        label = f"counts (seed {run['seed']}, trace {run['trace']})"
        detail = "differ: " + ", ".join(differing) if differing else f"{len(names)} identical"
        rows.append((run["workload"], label, detail, "regressed" if differing else "ok"))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(_load(args[0]), _load(args[1]), declaration())
    for workload, metric, detail, outcome in rows:
        print(f"{workload:14s} {metric:26s} {detail}  {outcome}")
    regressed = sum(outcome == "regressed" for *_rest, outcome in rows)
    unresolved = sum(outcome == "unresolved" for *_rest, outcome in rows)
    print(f"{len(rows)} comparisons: {regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
