"""CLI dispatcher: ``python -m repro.experiments <id> [--scale NAME]``.

Experiment ids are enumerated dynamically from the engine's spec
registry (every module in :mod:`repro.experiments` registers itself at
import time) — ``--list`` prints the catalog, ``all`` runs the whole
evaluation in the canonical paper order.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.experiments  # noqa: F401  (imports register every experiment)
from repro.engine import parallel
from repro.engine.registry import experiment_ids, get_experiment
from repro.experiments.common import Scale
from repro.obs.export import SnapshotCollector

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments`` / ``cot-experiments``."""
    parser = argparse.ArgumentParser(
        prog="cot-experiments",
        description="Regenerate the tables and figures of the CoT paper "
        "(EDBT 2021) from this reproduction.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=[*experiment_ids(), "all"],
        help="which table/figure to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list the registered experiments and exit",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=["smoke", "default", "paper"],
        help="workload sizing preset (default: 'default'; 'paper' is the "
        "full 1M-key/10M-access setup and is slow in pure Python)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallel scenario fabric (default: "
        "min(cpu count, 8); 1 forces the in-process sequential path). "
        "Outputs are byte-identical at every worker count",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write every run's telemetry as a Prometheus text-format "
        "(exposition 0.0.4) metrics page to PATH — counters, gauges, "
        "per-shard load families and latency histograms, one 'run' label "
        "per scenario executed",
    )
    args = parser.parse_args(argv)

    if args.list_experiments:
        width = max(len(eid) for eid in experiment_ids())
        for experiment_id in experiment_ids():
            entry = get_experiment(experiment_id)
            print(f"{experiment_id:<{width}}  {entry.description}")
        return 0
    if args.experiment is None:
        parser.error("an experiment id (or 'all' or --list) is required")

    scale = Scale.named(args.scale)
    ids = list(experiment_ids()) if args.experiment == "all" else [args.experiment]
    collector = SnapshotCollector().install() if args.metrics_out else None
    try:
        # Scoped: the fabric's worker count is process-global, and whatever
        # runs next in this process must find it as it was.
        with parallel.parallel_workers(args.parallel):
            for experiment_id in ids:
                started = time.perf_counter()
                outcome = get_experiment(experiment_id).run(scale=scale)
                elapsed = time.perf_counter() - started
                results = outcome if isinstance(outcome, list) else [outcome]
                for result in results:
                    print(result.render())
                    print()
                print(
                    f"[{experiment_id} completed in {elapsed:.1f}s "
                    f"at scale={scale.name}]"
                )
                print()
    finally:
        if collector is not None:
            collector.uninstall()
    if collector is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(collector.render())
        print(
            f"[{len(collector.snapshots)} telemetry snapshot(s) exported to "
            f"{args.metrics_out}]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
