#!/usr/bin/env python
"""Headless perf-regression gate over the data-plane micro-benchmarks.

Runs the ``bench_ops_throughput`` suite under pytest-benchmark without any
interactive output and records per-bench throughput in ``BENCH_ops.json``
at the repository root, so every PR leaves a comparable performance
trajectory behind.

Modes
-----
Record (default)::

    python benchmarks/run_perf_gate.py --label fastpath

appends one entry (label, timestamp, per-bench ops/s) to ``BENCH_ops.json``.

Check::

    python benchmarks/run_perf_gate.py --check

re-runs the suite and fails (exit 1) when any benchmark's throughput drops
more than ``--threshold`` (default 25%) below the most recent committed
entry — the invocation CI wires in front of merges. ``--against LABEL``
compares to a specific recorded entry instead of the latest. The suite
comparison and the four sections below all run, whatever the earlier
ones returned; a closing summary names each with its verdict and wall
seconds, and the exit status is 1 if any of them failed.

Every check has one owner, and this file owns the wall-clock A/B timings
only. Verdicts that are ratios of counts — the hot-key tier's targets,
the arbiter's convergence, the write-behind loss bound — are raised by
the experiment that computes them (``ext-hotkey`` / ``ext-adaptive`` /
``ext-write``, run by ``verify.sh``'s engine-smoke stage), and the socket
plane is priced by the ladder's ``net-sync`` / ``net-pipelined``
workloads (``benchmarks/ladder``).

Throughput is reported as operations per second: pytest-benchmark's
``1 / min-round-time`` scaled by the bench's ``ops_per_round`` extra-info
when present (the policy/ sketch loops run 2000 ops per timed round).
The *minimum* round is the noise-robust estimator on a small shared
host: scheduler contention only ever inflates a round, so the best
round tracks the code's true cost while the mean flaps with the
neighbours — the same reasoning the tracing gate's min-of-medians uses.

Parallel-scaling gate
---------------------
Both modes also run ``bench_parallel_scaling`` (one fig4 smoke grid
through the parallel fabric at 1/2/4 workers). Record mode stores the
measurement (seconds, speedups, host cpu count) in each entry; check mode
additionally gates ``speedup@4 >= 2.0`` — but only on hosts with at least
4 CPUs, since process fan-out physically cannot beat the sequential path
without cores to fan to (the measurement is still printed and the
fabric's determinism cross-check is always enforced).
``--parallel-scaling`` runs only this measurement.

Write-path gate
---------------
Both modes also probe the write-path strategy layer
(:mod:`repro.cluster.writepolicy`) on a 50/50 read/write stream:

* **wall-clock**: the same front end drives the stream under inline
  cache-aside and under an attached write-through strategy, best-of-N
  rounds each. Write-through must keep >= 1/1.5 of cache-aside's ops/s —
  the strategy layer's synchronous shard update is allowed to cost, but
  not to triple the write path.
* **modeled**: storage round trips dominate real deployments (the
  in-process testbed makes them free), so acknowledged-path throughput
  is modeled as ``wall ops/s x 1 / (1 + S x foreground storage writes
  per op)`` with RPC weight ``S = 10``. Write-behind acknowledges into
  a dirty buffer (foreground storage writes ~ 0: only shard-down sync
  fallbacks), so its modeled throughput must beat write-through's by
  >= 1.3x.

``--write-path`` runs only this measurement.

Tracing-overhead gate
---------------------
Both modes also measure the request tracer's cost on the hot path: the
same ``FrontEndClient.get`` loop (cot policy, lookup+admit) is timed with
``tracer=None`` and with a low-rate sampling :class:`~repro.obs.trace.Tracer`
attached, best-of-N rounds each. The gate fails when the traced loop's
throughput drops more than ``--overhead-threshold`` (default 5%) below the
untraced loop — observability must stay effectively free when it is not
sampling. ``--tracing-overhead`` runs only this measurement.

Adaptive-arbitration gate
-------------------------
Both modes also price the :class:`~repro.policies.adaptive.AdaptiveArbiter`
(DESIGN.md §14): the same ``FrontEndClient.get`` loop (cot 512/2048)
runs pinned and wrapped in an arbiter whose switch margin is unreachably
high — the live policy stays cot, so the pair differs only by the
SHARDS-sampled ghost shadows and epoch scoring. Min-of-block-medians
overhead must stay <= 15% (``ADAPTIVE_OVERHEAD_TARGET``).
``--adaptive`` runs only this measurement.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_ops.json"
SUITE = "benchmarks/bench_ops_throughput.py"

# The one place the in-process probes' imports are made to resolve: they
# import ``repro`` lazily, inside the function that needs it, and
# ``bench_parallel_scaling`` from this script's own directory, which is
# already ``sys.path[0]``.
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ops per timed round / timing rounds / warmup ops for the tracing gate
TRACE_OPS = 40_000
TRACE_ROUNDS = 9
#: independent median-of-TRACE_ROUNDS estimates; the gate takes their
#: minimum — scheduler noise on a small shared host inflates any single
#: estimate by several points, but a *real* traced-path regression
#: inflates all of them
TRACE_BLOCKS = 3
TRACE_WARMUP = 20_000
#: sampling rate used for the traced run — realistic production setting
#: (one request in 1024 records a span tree; the rest pay one accumulator
#: bump in ``Tracer.start``)
TRACE_SAMPLE_RATE = 1.0 / 1024.0


def run_suite() -> dict[str, dict[str, float]]:
    """Run the suite headlessly; returns ``{bench_name: {metrics}}``."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                SUITE,
                "--benchmark-only",
                f"--benchmark-json={json_path}",
                "-q",
                "--no-header",
                "-p",
                "no:cacheprovider",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not json_path.exists():
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"benchmark suite failed (exit {proc.returncode})")
        raw = json.loads(json_path.read_text(encoding="utf-8"))
    results: dict[str, dict[str, float]] = {}
    for bench in raw["benchmarks"]:
        best = bench["stats"]["min"]
        ops_per_round = bench.get("extra_info", {}).get("ops_per_round", 1)
        results[bench["name"]] = {
            "min_round_s": best,
            "ops_per_round": ops_per_round,
            "ops_per_sec": ops_per_round / best if best else 0.0,
        }
    return results


#: independent suite sessions merged per-bench by best ops/s — a noisy-
#: neighbour burst can outlast one whole pytest-benchmark session, so a
#: single session's min round still flaps; a *real* regression is slow
#: in every session (the suite-level twin of the tracing gate's blocks)
SUITE_BLOCKS = 3


def run_suite_best(blocks: int = SUITE_BLOCKS) -> dict[str, dict[str, float]]:
    """Best-of-``blocks`` independent suite runs (per-bench max ops/s)."""
    merged: dict[str, dict[str, float]] = {}
    for _ in range(blocks):
        for name, metrics in run_suite().items():
            best = merged.get(name)
            if best is None or metrics["ops_per_sec"] > best["ops_per_sec"]:
                merged[name] = metrics
    return merged


def _suite_failures(
    baseline: dict, current: dict, threshold: float
) -> list[str]:
    """Bench names under the threshold vs the baseline entry."""
    fails = []
    for name, base_metrics in baseline["results"].items():
        base_ops = base_metrics["ops_per_sec"]
        now = current.get(name)
        if now is None or (
            base_ops and now["ops_per_sec"] / base_ops < 1.0 - threshold
        ):
            fails.append(name)
    return fails


def _build_client(arbitrated: bool = False):
    """A warmed ``FrontEndClient`` (cot 512/2048) plus its key stream.

    With ``arbitrated`` the cot policy rides inside an
    :class:`~repro.policies.adaptive.AdaptiveArbiter` whose switch margin
    is unreachably high, pinning the live policy to cot — the pair then
    differs only by the arbiter's sampling and shadow machinery, which is
    exactly what the gate prices.
    """
    from repro.cluster.client import FrontEndClient
    from repro.cluster.cluster import CacheCluster
    from repro.engine.spec import ArbitrationSpec, PolicySpec
    from repro.workloads.zipfian import ZipfianGenerator

    arbitration = ArbitrationSpec(switch_margin=1e9) if arbitrated else None
    spec = PolicySpec(
        name="cot", cache_lines=512, tracker_lines=2048, arbitration=arbitration
    )
    generator = ZipfianGenerator(10_000, theta=0.99, seed=42)
    keys = [f"usertable:{k}" for k in generator.keys_array(TRACE_OPS)]
    cluster = CacheCluster(num_servers=8, value_size=1, virtual_nodes=1024)
    client = FrontEndClient(cluster, spec.build(0))
    warmup = keys * (TRACE_WARMUP // len(keys) + 1)
    for key in warmup[:TRACE_WARMUP]:
        client.get(key)
    return client, keys


def _sweep(client, keys) -> float:
    """Wall time of one sweep of the key stream."""
    get = client.get
    started = time.perf_counter()
    for key in keys:
        get(key)
    return time.perf_counter() - started


def _paired_overhead(
    base_sweep: Callable[[], float], changed_sweep: Callable[[], float], blocks: int
) -> tuple[float, float, list[float]]:
    """``changed_sweep``'s cost relative to ``base_sweep``'s, noise-robustly.

    Each callable runs one whole sweep of the stream and returns its wall
    seconds. Returns ``(best base seconds, best changed seconds, per-block
    median changed/base ratios)``; the gated overhead is the minimum
    block median minus one.

    Runs in-process (no pytest-benchmark) because the comparison is
    relative. Sweep order alternates per round so within-round drift
    cancels, and the collector is kept out of the timing windows. Whole
    sweeps (not finer time-slicing) are deliberate: alternating two
    clients at sub-sweep granularity makes each evict the other's working
    set, which taxes the larger-footprint side for refaults a resident
    production object never pays.

    The estimate is the minimum of ``blocks`` independent
    median-of-``TRACE_ROUNDS`` estimates. A single median still swings
    by several points when the host is contended (observed ±8 pts on a
    shared 1-CPU box, both signs — the effects being gated are at or
    under the noise floor); contention only *inflates* an estimate
    spuriously, never all of them in the same direction for long, while
    a genuine hot-path regression lifts every block.
    """
    import gc

    base_best = changed_best = float("inf")
    block_medians: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _block in range(blocks):
            ratios: list[float] = []
            for round_index in range(TRACE_ROUNDS):
                # Each round yields one changed/base ratio from two
                # temporally adjacent sweeps; the median of the per-round
                # ratios shrugs off the heavy-tailed scheduler noise that
                # makes a global best-of comparison flap.
                gc.collect()
                if round_index % 2 == 0:
                    base = base_sweep()
                    changed = changed_sweep()
                else:
                    changed = changed_sweep()
                    base = base_sweep()
                base_best = min(base_best, base)
                changed_best = min(changed_best, changed)
                ratios.append(changed / base)
            ratios.sort()
            block_medians.append(ratios[len(ratios) // 2])
    finally:
        if gc_was_enabled:
            gc.enable()
    return base_best, changed_best, block_medians


def measure_tracing_overhead() -> dict[str, float]:
    """Time the cot lookup+admit hot path untraced vs. traced.

    The measurement is *paired* (:func:`_paired_overhead`) on one client
    object: it runs every sweep, with the tracer attached or detached
    between sweeps — two separately-built clients differ by several
    percent from memory layout alone, which would swamp the effect being
    gated. A traced request takes the same cache/guard/monitor decisions
    as an untraced one, so flipping the tracer does not perturb the
    policy state the paired sweeps share.
    """
    from repro.obs.trace import Tracer

    client, keys = _build_client()
    tracer = Tracer(sample_rate=TRACE_SAMPLE_RATE)

    def sweep_with(config) -> float:
        client.tracer = config
        return _sweep(client, keys)

    # Warm both branch shapes (adaptive-interpreter specialization) before
    # any timed sweep.
    for config in (tracer, None):
        sweep_with(config)
    untraced, traced, block_medians = _paired_overhead(
        lambda: sweep_with(None), lambda: sweep_with(tracer), TRACE_BLOCKS
    )
    return {
        "untraced_ops_per_sec": len(keys) / untraced,
        "traced_ops_per_sec": len(keys) / traced,
        "overhead_fraction": min(block_medians) - 1.0,
        "block_medians": [m - 1.0 for m in block_medians],
        "sample_rate": TRACE_SAMPLE_RATE,
    }


#: Allowed hot-path slowdown from the adaptive arbiter's shadow machinery
#: (SHARDS-sampled ghost shadows + epoch scoring), live policy pinned.
ADAPTIVE_OVERHEAD_TARGET = 0.15
#: More blocks than the tracing gate: the unpaired two-client comparison
#: has a higher noise floor, and the minimum over blocks only sheds a
#: contention burst if some block escaped it.
ADAPTIVE_BLOCKS = 5


def measure_adaptive_overhead() -> dict[str, float]:
    """Time the serving hot path pinned vs. wrapped in the arbiter.

    The same estimator as :func:`measure_tracing_overhead`
    (:func:`_paired_overhead`), but the comparison cannot be paired on
    one object: pinned-vs-arbitrated *is* two different policy stacks,
    each swept whole. ``ADAPTIVE_OVERHEAD_TARGET`` sits well above the
    few-point floor that two independently-built clients differ by from
    memory layout alone.
    """
    pinned, keys = _build_client()
    arbitrated, _ = _build_client(arbitrated=True)
    plain_best, wrapped_best, block_medians = _paired_overhead(
        lambda: _sweep(pinned, keys),
        lambda: _sweep(arbitrated, keys),
        ADAPTIVE_BLOCKS,
    )
    return {
        "pinned_ops_per_sec": len(keys) / plain_best,
        "arbitrated_ops_per_sec": len(keys) / wrapped_best,
        "overhead_fraction": min(block_medians) - 1.0,
        "block_medians": [m - 1.0 for m in block_medians],
    }


def check_adaptive() -> int:
    """Gate: the arbiter's shadows cost <= 15% on the serving hot path."""
    overhead = measure_adaptive_overhead()
    fraction = overhead["overhead_fraction"]
    for _retry in range(2):
        if fraction <= ADAPTIVE_OVERHEAD_TARGET:
            break
        # The external-host noise bursts that swamp this box last whole
        # minutes — sometimes longer than all ADAPTIVE_BLOCKS, inflating
        # every block median at once. Re-measure in a fresh window and
        # keep the best estimate: a real hot-path regression is slow in
        # every window (the overhead twin of the suite gate's
        # retry-and-merge).
        print(f"  (overhead {fraction:+.2%} over threshold; re-measuring "
              f"in a fresh window)")
        retry = measure_adaptive_overhead()
        if retry["overhead_fraction"] < fraction:
            overhead = retry
            fraction = retry["overhead_fraction"]
    blocks = ", ".join(f"{m:+.2%}" for m in overhead["block_medians"])
    print("adaptive arbitration — shadow overhead on the serving hot path "
          "(cot 512/2048, live policy pinned):")
    print(f"  pinned     {overhead['pinned_ops_per_sec']:>14,.0f} ops/s")
    print(f"  arbitrated {overhead['arbitrated_ops_per_sec']:>14,.0f} ops/s")
    print(f"  overhead   {fraction:>+14.2%}  (threshold "
          f"+{ADAPTIVE_OVERHEAD_TARGET:.0%}; block medians {blocks})")
    if fraction > ADAPTIVE_OVERHEAD_TARGET:
        print(f"\nadaptive gate FAILED: shadow-cache overhead {fraction:+.2%} "
              f"exceeds +{ADAPTIVE_OVERHEAD_TARGET:.0%} over the pinned policy")
        return 1
    print("adaptive gate passed")
    return 0


#: Required fig4-grid speedup at 4 workers (hosts with >= 4 CPUs).
SCALING_TARGET = 2.0
SCALING_WORKERS = 4


def measure_parallel_scaling() -> dict:
    """Run the fabric scaling bench in-process; returns its record."""
    from bench_parallel_scaling import measure

    return measure()


def check_parallel_scaling() -> int:
    """Gate: the fig4 grid must scale >= 2x at 4 workers (4+ CPU hosts).

    The determinism cross-check is enforced unconditionally — identical
    hit rates at every worker count — because a fabric that returns
    different numbers is broken at any speed.
    """
    record = measure_parallel_scaling()
    cpu_count = record["cpu_count"]
    speedup = record["speedup"][str(SCALING_WORKERS)]
    print(f"parallel scaling — {record['grid']} ({record['tasks']} tasks), "
          f"{cpu_count} cpu(s):")
    for workers, seconds in record["seconds"].items():
        print(f"  {workers} worker(s): {seconds:8.3f}s  "
              f"(speedup {record['speedup'][workers]:.2f}x)")
    if not record["deterministic"]:
        print("\nparallel-scaling gate FAILED: results differ across "
              "worker counts (determinism contract broken)")
        return 1
    if cpu_count < SCALING_WORKERS:
        print(f"parallel-scaling gate skipped: host has {cpu_count} cpu(s), "
              f"gate needs >= {SCALING_WORKERS} to be meaningful "
              "(measurement recorded)")
        return 0
    if speedup < SCALING_TARGET:
        print(f"\nparallel-scaling gate FAILED: speedup at "
              f"{SCALING_WORKERS} workers is {speedup:.2f}x "
              f"(target >= {SCALING_TARGET:.1f}x)")
        return 1
    print(f"parallel-scaling gate passed ({speedup:.2f}x at "
          f"{SCALING_WORKERS} workers)")
    return 0


#: write-path gate targets: write-through may cost at most 1.5x
#: cache-aside wall-clock; write-behind must model >= 1.3x write-through
WRITE_THROUGH_OVERHEAD_TARGET = 1.5
WRITE_BEHIND_SPEEDUP_TARGET = 1.3
#: modeled storage RPC weight: one synchronous storage write costs this
#: many in-process op units (free in the testbed, dominant in the cloud)
STORAGE_RPC_WEIGHT = 10
WRITE_PROBE_OPS = 24_000
WRITE_PROBE_ROUNDS = 5
WRITE_PROBE_KEYS = 4_096
WRITE_READ_FRACTION = 0.5
WRITE_PROBE_DIRTY_LIMIT = 64
WRITE_PROBE_FLUSH_EVERY = 1_024


def _write_probe(mode: str) -> dict[str, float]:
    """Best-of-N wall-clock + modeled throughput of one write mode."""
    import dataclasses
    import random as _random

    from repro.cluster.client import FrontEndClient
    from repro.cluster.cluster import CacheCluster
    from repro.cluster.writepolicy import make_write_policy
    from repro.policies.registry import make_policy

    cluster = CacheCluster(num_servers=8, value_size=1)
    client = FrontEndClient(
        cluster, make_policy("cot", 512, tracker_capacity=2048)
    )
    policy = None
    if mode != "cache-aside":
        policy = make_write_policy(
            mode, cluster, dirty_limit=WRITE_PROBE_DIRTY_LIMIT
        )
        client.attach_write_policy(policy)
    rng = _random.Random(42)
    ops = [
        (
            f"usertable:{rng.randrange(WRITE_PROBE_KEYS)}",
            rng.random() < WRITE_READ_FRACTION,
        )
        for _ in range(WRITE_PROBE_OPS)
    ]
    flush_every = WRITE_PROBE_FLUSH_EVERY if mode == "write-behind" else 0

    def sweep() -> float:
        get, set_ = client.get, client.set
        started = time.perf_counter()
        for index, (key, is_read) in enumerate(ops, start=1):
            if is_read:
                get(key)
            else:
                set_(key, key)
            if flush_every and index % flush_every == 0:
                policy.flush()
        return time.perf_counter() - started

    sweep()  # warm the cache and the branch shapes
    stats_before = (
        None if policy is None else dataclasses.asdict(policy.stats)
    )
    best = min(sweep() for _ in range(WRITE_PROBE_ROUNDS))
    wall_ops = WRITE_PROBE_OPS / best
    # Foreground (acknowledged-path) storage writes per op, from the
    # strategy's own ledger over the timed rounds. Cache-aside and
    # write-through write storage synchronously on every set; write-behind
    # only on shard-down sync fallbacks (none here: no faults injected).
    writes = sum(1 for _key, is_read in ops if not is_read)
    if policy is None:
        foreground = writes * WRITE_PROBE_ROUNDS
    else:
        after = dataclasses.asdict(policy.stats)
        delta = lambda name: after[name] - stats_before[name]  # noqa: E731
        if mode == "write-behind":
            foreground = delta("sync_fallbacks")
        else:
            foreground = delta("storage_writes")
    per_op = foreground / (WRITE_PROBE_OPS * WRITE_PROBE_ROUNDS)
    modeled = wall_ops / (1.0 + STORAGE_RPC_WEIGHT * per_op)
    record = {
        "wall_ops_per_sec": wall_ops,
        "foreground_storage_writes_per_op": per_op,
        "modeled_ops_per_sec": modeled,
    }
    if policy is not None and mode == "write-behind":
        record["lost_writes"] = float(policy.stats.lost_writes)
        record["peak_dirty"] = float(policy.stats.peak_dirty)
    return record


def measure_write_path() -> dict:
    """Probe cache-aside / write-through / write-behind on one stream."""
    modes = ("cache-aside", "write-through", "write-behind")
    probes = {mode: _write_probe(mode) for mode in modes}
    aside = probes["cache-aside"]["wall_ops_per_sec"]
    through = probes["write-through"]["wall_ops_per_sec"]
    return {
        "read_fraction": WRITE_READ_FRACTION,
        "storage_rpc_weight": STORAGE_RPC_WEIGHT,
        "modes": probes,
        "write_through_overhead": aside / through if through else float("inf"),
        "write_behind_speedup": (
            probes["write-behind"]["modeled_ops_per_sec"]
            / probes["write-through"]["modeled_ops_per_sec"]
        ),
    }


def check_write_path() -> int:
    """Gate: the strategy layer must stay cheap and write-behind must pay."""
    record = measure_write_path()
    overhead = record["write_through_overhead"]
    speedup = record["write_behind_speedup"]
    print(f"write path — 50/50 mixed stream, "
          f"storage RPC weight S={record['storage_rpc_weight']}:")
    for mode, probe in record["modes"].items():
        print(f"  {mode:13s} wall {probe['wall_ops_per_sec']:>12,.0f} ops/s  "
              f"modeled {probe['modeled_ops_per_sec']:>12,.0f} ops/s  "
              f"(fg storage writes/op "
              f"{probe['foreground_storage_writes_per_op']:.3f})")
    print(f"  write-through overhead {overhead:5.2f}x  (target <= "
          f"{WRITE_THROUGH_OVERHEAD_TARGET:g}x)")
    print(f"  write-behind modeled speedup {speedup:5.2f}x  (target >= "
          f"{WRITE_BEHIND_SPEEDUP_TARGET:g}x)")
    behind = record["modes"]["write-behind"]
    failed = []
    if overhead > WRITE_THROUGH_OVERHEAD_TARGET:
        failed.append(
            f"write-through costs {overhead:.2f}x cache-aside "
            f"(allowed {WRITE_THROUGH_OVERHEAD_TARGET:g}x)"
        )
    if speedup < WRITE_BEHIND_SPEEDUP_TARGET:
        failed.append(
            f"write-behind modeled speedup {speedup:.2f}x below "
            f"{WRITE_BEHIND_SPEEDUP_TARGET:g}x"
        )
    if behind.get("lost_writes", 0.0):
        failed.append("write-behind lost acknowledged writes with no faults")
    if behind.get("peak_dirty", 0.0) > WRITE_PROBE_DIRTY_LIMIT:
        failed.append("write-behind dirty buffers exceeded their bound")
    if failed:
        print("\nwrite-path gate FAILED:")
        for reason in failed:
            print(f"  - {reason}")
        return 1
    print("write-path gate passed")
    return 0


def check_tracing_overhead(threshold: float) -> int:
    """Gate: traced throughput must stay within ``threshold`` of untraced."""
    metrics = measure_tracing_overhead()
    overhead = metrics["overhead_fraction"]
    print(
        f"tracing overhead on cot lookup+admit "
        f"(sample rate 1/{round(1 / metrics['sample_rate'])}):"
    )
    print(f"  untraced {metrics['untraced_ops_per_sec']:>14,.0f} ops/s")
    print(f"  traced   {metrics['traced_ops_per_sec']:>14,.0f} ops/s")
    blocks = ", ".join(f"{m:+.2%}" for m in metrics["block_medians"])
    print(f"  overhead {overhead:>+14.2%}  (threshold +{threshold:.0%}; "
          f"block medians {blocks})")
    if overhead > threshold:
        print("\ntracing-overhead gate FAILED")
        return 1
    print("tracing-overhead gate passed")
    return 0


def load_entries() -> list[dict]:
    if not BENCH_FILE.exists():
        return []
    return json.loads(BENCH_FILE.read_text(encoding="utf-8")).get("entries", [])


def save_entries(entries: list[dict]) -> None:
    payload = {
        "suite": SUITE,
        "metric": "ops_per_sec (ops_per_round / min round time)",
        "entries": entries,
    }
    BENCH_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def record(label: str) -> None:
    results = run_suite_best()
    scaling = measure_parallel_scaling()
    write_path = measure_write_path()
    adaptive = measure_adaptive_overhead()
    entries = load_entries()
    entries.append(
        {
            "label": label,
            "recorded_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "results": results,
            "parallel_scaling": scaling,
            "write_path": write_path,
            "adaptive": {"overhead": adaptive},
        }
    )
    save_entries(entries)
    print(f"recorded entry {label!r} -> {BENCH_FILE.relative_to(REPO_ROOT)}")
    for name, metrics in sorted(results.items()):
        print(f"  {name:45s} {metrics['ops_per_sec']:>14,.0f} ops/s")
    for workers, seconds in scaling["seconds"].items():
        print(f"  parallel_scaling[{workers}w]{'':26s} {seconds:>10.3f}s "
              f"({scaling['speedup'][workers]:.2f}x)")
    print(f"  write_path through overhead "
          f"{write_path['write_through_overhead']:.2f}x, behind modeled "
          f"speedup {write_path['write_behind_speedup']:.2f}x")
    print(f"  adaptive shadow overhead {adaptive['overhead_fraction']:+.2%}")


def check_suite(threshold: float, against: str | None) -> int:
    """Gate: no bench more than ``threshold`` under the recorded entry."""
    entries = load_entries()
    if not entries:
        raise SystemExit(
            f"{BENCH_FILE.name} has no recorded entries; run the gate in "
            "record mode first (python benchmarks/run_perf_gate.py)"
        )
    if against is None:
        baseline = entries[-1]
    else:
        matches = [e for e in entries if e["label"] == against]
        if not matches:
            raise SystemExit(f"no recorded entry labelled {against!r}")
        baseline = matches[-1]
    current = run_suite()
    for _ in range(SUITE_BLOCKS - 1):
        if not _suite_failures(baseline, current, threshold):
            break
        # an apparent regression may be a noisy-neighbour burst that
        # spanned the whole session: merge another independent run and
        # re-judge (a real regression stays under threshold every time)
        for name, metrics in run_suite().items():
            prev = current.get(name)
            if prev is None or metrics["ops_per_sec"] > prev["ops_per_sec"]:
                current[name] = metrics
    failures: list[str] = []
    print(f"comparing against entry {baseline['label']!r} "
          f"(recorded {baseline['recorded_utc']}), threshold -{threshold:.0%}")
    for name, base_metrics in sorted(baseline["results"].items()):
        base_ops = base_metrics["ops_per_sec"]
        now = current.get(name)
        if now is None:
            failures.append(f"{name}: benchmark disappeared from the suite")
            continue
        ratio = now["ops_per_sec"] / base_ops if base_ops else 1.0
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {now['ops_per_sec']:,.0f} ops/s vs "
                f"{base_ops:,.0f} baseline ({ratio:.2f}x)"
            )
        print(f"  {name:45s} {ratio:>6.2f}x  {verdict}")
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


#: The sections ``--check`` runs after the suite comparison, in order:
#: name (also the ``--<name>`` flag that runs that section alone), help
#: text, and the check itself (parsed arguments -> exit status).
SECTIONS = (
    (
        "parallel-scaling",
        "run only the parallel-fabric scaling gate",
        lambda args: check_parallel_scaling(),
    ),
    (
        "write-path",
        "run only the write-path gate (cache-aside vs write-through "
        "wall clock; write-through vs write-behind modeled throughput)",
        lambda args: check_write_path(),
    ),
    (
        "tracing-overhead",
        "run only the traced-vs-untraced overhead gate",
        lambda args: check_tracing_overhead(args.overhead_threshold),
    ),
    (
        "adaptive",
        "run only the adaptive-arbitration gate (shadow-cache overhead "
        "on the serving hot path with the live policy pinned)",
        lambda args: check_adaptive(),
    ),
)
SUITE_SECTION = ("suite", "", lambda args: check_suite(args.threshold, args.against))


def run_sections(sections, args: argparse.Namespace) -> int:
    """Run every section — a failure never hides the ones after it."""
    outcomes: list[tuple[str, int, float]] = []
    for name, _help, section_check in sections:
        started = time.perf_counter()
        status = section_check(args)
        outcomes.append((name, status, time.perf_counter() - started))
        print()
    print("perf gate sections:")
    for name, status, seconds in outcomes:
        print(f"  {name:18s} {'FAILED' if status else 'passed'}  {seconds:7.1f}s")
    return int(any(status for _name, status, _seconds in outcomes))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        default="current",
        help="label stored with the recorded entry (record mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against the committed baseline and fail "
        "on regression instead of recording",
    )
    parser.add_argument(
        "--against",
        default=None,
        help="baseline entry label for --check (default: latest entry)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop before failing (default 0.25)",
    )
    for name, help_text, _check in SECTIONS:
        parser.add_argument(f"--{name}", action="store_true", help=help_text)
    parser.add_argument(
        "--overhead-threshold",
        type=float,
        default=0.05,
        help="allowed fractional slowdown from an attached low-rate tracer "
        "on the cot lookup+admit hot path (default 0.05)",
    )
    args = parser.parse_args()
    selected = [
        section for section in SECTIONS if getattr(args, section[0].replace("-", "_"))
    ]
    if selected:
        return run_sections(selected, args)
    if args.check:
        return run_sections((SUITE_SECTION, *SECTIONS), args)
    record(args.label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
