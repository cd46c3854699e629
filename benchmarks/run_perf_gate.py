#!/usr/bin/env python
"""The perf-regression gate: one table of rows, each measured once.

A row is a name, its metric and which way is better, and the bound it
is held to. The 13 rates share one probe shape and one bound relative to
the latest entry (``RATES``); each ratio row is paired with its own
measure (``ROWS``)::

    python benchmarks/run_perf_gate.py --check            # judge every row
    python benchmarks/run_perf_gate.py --label my-change  # record an entry

Both modes run every row in process, once, and print ``name  value
bound  verdict`` for each, judged against the latest entry of
``BENCH_ops.json``. ``--check`` exits 1 if any row fails; there is no
retry, so a failing row was measured failing. Without ``--check`` the
readings are appended to ``BENCH_ops.json`` as a new entry, or folded
into the latest one when its label is given again (:func:`fold`).

Rows
----
* **Rates** (``policy_lookup_admit[cot]``, ``hash_ring_lookup``, ...):
  ops/s of one data-plane component. Each is timed in ``BLOCKS`` blocks
  with ``calib.py``'s loop run between each, as the ladder's child times a
  workload: a block's rate comes from its fastest ``OPS``-operation round
  (contention only ever inflates a round), is scaled by ``calib_s /
  CALIB_REF_S``, and the row reads the median block (blocks interleaved
  across rows, :func:`rate_readings`). A rate must stay at least
  ``RATE_FLOOR`` (0.75) of the latest entry's value for the row.
* ``parallel_speedup@4``: the fig4 smoke grid through the parallel fabric
  at 1, 2 and 4 workers; the 4-worker speedup must reach 2.0 on hosts
  with at least 4 CPUs (fan-out cannot beat sequential without cores to
  fan to) and is reported as ``skipped`` on smaller ones. Every host
  enforces the determinism cross-check: identical hit rates at every
  worker count, so a speedup cannot come from doing different work.
* ``write_through_overhead``: write-through's wall time over inline
  cache-aside's on one 50/50 stream, <= 1.5x. The three write modes'
  rounds alternate, and each mode is timed once for both write rows.
* ``write_behind_speedup``: the one modeled check. Storage round trips
  dominate real deployments and are free in the testbed, so the
  acknowledged path's rate is modeled as ``wall ops/s / (1 + S x
  foreground storage writes per op)`` with ``S = 10``. Write-behind must
  beat write-through by >= 1.3x, with no lost write and at most
  ``WRITE_DIRTY_LIMIT`` dirty keys at peak.
* ``tracing_overhead``: a low-rate tracer attached to the cot
  lookup+admit client path costs <= 5%.
* ``arbiter_overhead``: the adaptive arbiter's sampled shadows, live
  policy pinned, cost <= 15% on the same path.

The ratios are not normalised: host speed cancels in a ratio.

Every check has one owner, and this file owns the wall-clock timings
only. Verdicts that are ratios of counts (the hot-key tier's targets,
the arbiter's convergence, the write-behind chaos loss bound) are raised
by the experiment that computes them (``ext-hotkey`` / ``ext-adaptive``
/ ``ext-write``, run by ``verify.sh``'s engine-smoke stage), and the
socket plane is priced by the ladder's ``net-sync`` / ``net-pipelined``
workloads (``benchmarks/ladder``).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import gc
import itertools
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_ops.json"
sys.path.insert(0, str(REPO_ROOT / "src"))
# Appended, not prepended: the ladder's modules must shadow nothing.
sys.path.append(str(REPO_ROOT / "benchmarks" / "ladder"))

from calib import CALIB_REF_S, Calibrator  # noqa: E402

from repro.cluster.client import FrontEndClient  # noqa: E402
from repro.cluster.cluster import CacheCluster  # noqa: E402
from repro.cluster.hashring import ConsistentHashRing  # noqa: E402
from repro.cluster.writepolicy import make_write_policy  # noqa: E402
from repro.core.cache import CoTCache  # noqa: E402
from repro.core.tracker import CoTTracker  # noqa: E402
from repro.engine import (  # noqa: E402
    PolicySpec,
    PolicyStreamRunner,
    Scale,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.engine.parallel import map_specs, parallel_workers, warm_pool  # noqa: E402
from repro.engine.spec import ArbitrationSpec  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.policies.base import MISSING  # noqa: E402
from repro.policies.registry import POLICY_NAMES, make_policy  # noqa: E402
from repro.workloads.mixer import OperationMixer  # noqa: E402
from repro.workloads.scrambled import ScrambledZipfianGenerator  # noqa: E402
from repro.workloads.zipfian import ZipfianGenerator  # noqa: E402

#: a rate may fall to this share of the latest entry's value, no lower
RATE_FLOOR = 0.75
#: operations per timed round of a rate row, the rounds' time budget per
#: block, and the blocks per row
OPS = 2_000
ROUND_SECONDS = 0.1
MIN_ROUNDS = 5
BLOCKS = 16
KEYS = 10_000
STREAM = 100_000


class Row(NamedTuple):
    """How one line of the gate is judged.

    ``bound`` is absolute (``None`` for a rate with no baseline value);
    ``limits`` are facts of the reading no run may exceed, on every host;
    below ``min_cpus`` the value is reported but not judged.
    """

    name: str
    unit: str
    better: str
    bound: float | None
    limits: tuple[tuple[str, float], ...] = ()
    min_cpus: int = 1


#: a rate's probe factory: builds the probe, returns one timed round and
#: the operations in it
Probe = Callable[[], tuple[Callable[[], object], int]]


# -- rates

def _best_round(run: Callable[[], object]) -> float:
    """Seconds of the fastest of ``run``'s rounds over ``ROUND_SECONDS``."""
    best = float("inf")
    rounds = 0
    stop = time.perf_counter() + ROUND_SECONDS
    while rounds < MIN_ROUNDS or time.perf_counter() < stop:
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
        rounds += 1
    return best


def rate_readings(
    rates: dict[str, Probe], calibrator: Calibrator
) -> tuple[dict[str, dict[str, Any]], float]:
    """Every rate row's ops/s, timed the way the ladder's child times a workload.

    ``BLOCKS`` blocks per row, a calibration run between each; a block's
    rate (from its fastest round) is scaled by the mean of the two
    calibrations around it, and the row reads its median block. The rows'
    blocks are interleaved, so each row's blocks spread over the whole
    section (~35 s): a shared host's slow spells last seconds, calibration
    corrects only part of one, and the median is decided by a spell only
    if it covers more than half the section. Many short blocks, not a few
    long ones, for the same reason. Returns the readings and the median
    calibration time.
    """
    probes = {name: probe() for name, probe in rates.items()}
    blocks: dict[str, list[float]] = {name: [] for name in probes}
    calibs: list[float] = []
    calib_s = calibrator.run()
    for _ in range(BLOCKS):
        for name, (run, ops) in probes.items():
            best = _best_round(run)
            after = calibrator.run()
            calibs.append((calib_s + after) / 2)
            blocks[name].append(ops / best * calibs[-1] / CALIB_REF_S)
            calib_s = after
    readings = {name: {"value": statistics.median(values)} for name, values in blocks.items()}
    return readings, statistics.median(calibs)


def _windows() -> Callable[[], list[int]]:
    """Successive ``OPS``-key windows of the gate's Zipf-0.99 stream, cycling."""
    keys = ZipfianGenerator(KEYS, theta=0.99, seed=42).keys_array(STREAM)
    windows = [keys[i:i + OPS] for i in range(0, STREAM, OPS)]
    return functools.partial(next, itertools.cycle(windows))


def policy_lookup_admit(name: str):
    """One lookup+admit through ``run_stream``, the harnesses' entry (CoT's fused path)."""
    policy = make_policy(name, 512, tracker_capacity=2048)
    window = _windows()
    for _ in range(10):  # warm to a steady hit/miss mix
        policy.run_stream(window())
    return lambda: policy.run_stream(window()), OPS


def tracker_track():
    tracker: CoTTracker[int] = CoTTracker(2048, 0)
    window = _windows()

    def run() -> None:
        for key in window():
            tracker.track(key)

    return run, OPS


def _ring_keys() -> tuple[ConsistentHashRing, list[str]]:
    ring = ConsistentHashRing([f"cache-{i}" for i in range(8)], virtual_nodes=2048)
    return ring, [f"usertable:{k}" for k in _windows()()]


def hash_ring_lookup():
    ring, keys = _ring_keys()

    def run() -> None:
        for key in keys:
            ring.server_for(key)

    return run, OPS


def hash_ring_replica_lookup():
    """Replica-set resolution (hot-key tier): one bisect plus a table fetch."""
    ring, keys = _ring_keys()
    ring.lookup_replicas(keys[0], 3)  # build the r=3 successor table once

    def run() -> None:
        for key in keys:
            ring.lookup_replicas(key, 3)

    return run, OPS


def _draws(generator) -> tuple[Callable[[], None], int]:
    def run() -> None:
        for _ in range(OPS):
            generator.next_key()

    return run, OPS


def zipfian_generation():
    return _draws(ZipfianGenerator(1_000_000, theta=0.99, seed=1))


def scrambled_zipfian_generation():
    return _draws(ScrambledZipfianGenerator(1_000_000, seed=1))


def request_mix_generation():
    """Key draw, wire-key formatting and one slotted ``Request`` per operation."""
    mixer = OperationMixer(ZipfianGenerator(KEYS, theta=0.99, seed=7), seed=11)
    return lambda: mixer.next_requests(OPS), OPS


ENGINE_ACCESSES = 20_000


def engine_policy_stream():
    """A whole ``PolicyStreamRunner`` run per round: spec, runner, drive, snapshot.

    The gap to ``policy_lookup_admit[cot]`` is the engine's per-run
    overhead amortised over the stream.
    """
    spec = ScenarioSpec(
        scale=Scale.smoke().scaled(name="bench", key_space=KEYS, accesses=ENGINE_ACCESSES),
        workload=WorkloadSpec(dist="zipf-0.99"),
        policy=PolicySpec(name="cot", cache_lines=512, tracker_lines=2048),
    )
    runner = PolicyStreamRunner()
    return lambda: runner.run(spec), ENGINE_ACCESSES


RESIZE_CYCLES = 100


def cot_resize_cycle():
    """A double-then-halve resize of a warm 512-line cache; ops are cycles."""
    cache = CoTCache(512, tracker_capacity=2048)
    window = _windows()
    for _ in range(15):
        for key in window():
            if cache.lookup(key) is MISSING:
                cache.admit(key, key)

    def run() -> None:
        for _ in range(RESIZE_CYCLES):
            cache.set_sizes(1024, 4096)
            cache.set_sizes(512, 2048)

    return run, RESIZE_CYCLES


# -- the parallel fabric

def parallel_speedup() -> dict[str, Any]:
    """Wall clock of the fig4 smoke grid (4 sizes x 5 policies) at 1, 2, 4 workers.

    The pool is started and import-warmed before each timing, so
    interpreter start-up stays out of the steady-state figure.
    """
    specs = [
        ScenarioSpec(
            scale=Scale.smoke(),
            workload=WorkloadSpec(dist="zipf-0.99"),
            policy=PolicySpec(name=name, cache_lines=size, tracker_lines=8 * size),
        )
        for size in (2, 8, 32, 128)
        for name in POLICY_NAMES
    ]
    seconds: dict[int, float] = {}
    hit_rates: dict[int, list[float]] = {}
    for workers in (1, 2, 4):
        with parallel_workers(workers):
            warm_pool()
            started = time.perf_counter()
            snapshots = map_specs("policy", specs)
            seconds[workers] = time.perf_counter() - started
        hit_rates[workers] = [snap.hit_rate for snap in snapshots]
    return {
        "value": seconds[1] / seconds[4],
        "mismatches": sum(rates != hit_rates[1] for rates in hit_rates.values()),
        "note": ", ".join(f"{w}w {s:.2f}s" for w, s in seconds.items()),
    }


# -- the write path: one 50/50 stream under each write mode

WRITE_OPS = 24_000
WRITE_ROUNDS = 5
WRITE_KEYS = 4_096
WRITE_DIRTY_LIMIT = 64
WRITE_FLUSH_EVERY = 1_024
#: modeled storage RPC weight: one synchronous storage write costs this
#: many in-process operations (free in the testbed, dominant in a cloud)
STORAGE_RPC_WEIGHT = 10


def _write_sweep(mode: str) -> tuple[Callable[[], float], Callable[[], int], Any]:
    """One write mode's timed sweep of the 50/50 stream, its foreground
    storage-write counter, and its write policy (``None`` for cache-aside)."""
    cluster = CacheCluster(num_servers=8, value_size=1)
    client = FrontEndClient(cluster, make_policy("cot", 512, tracker_capacity=2048))
    policy = None
    if mode != "cache-aside":
        policy = make_write_policy(mode, cluster, dirty_limit=WRITE_DIRTY_LIMIT)
        client.attach_write_policy(policy)
    rng = random.Random(42)
    ops = [
        (f"usertable:{rng.randrange(WRITE_KEYS)}", rng.random() < 0.5)
        for _ in range(WRITE_OPS)
    ]
    flush_every = WRITE_FLUSH_EVERY if mode == "write-behind" else 0
    rounds = 0

    def sweep() -> float:
        nonlocal rounds
        rounds += 1
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

    # Foreground (acknowledged-path) storage writes: cache-aside and
    # write-through write storage on every set, write-behind only on a
    # shard-down sync fallback (none here: no faults injected).
    sets = sum(not is_read for _key, is_read in ops)
    if policy is None:
        return sweep, lambda: rounds * sets, None
    counter = "sync_fallbacks" if mode == "write-behind" else "storage_writes"
    return sweep, lambda: getattr(policy.stats, counter), policy


@functools.cache
def _write_probes() -> dict[str, dict[str, float]]:
    """Best-of-``WRITE_ROUNDS`` wall ops/s of each write mode, and its modeled ops/s.

    The modes' rounds alternate, so a drift in host speed reaches all
    three alike. Cached: both write-path rows judge the one reading.
    """
    sweeps = {mode: _write_sweep(mode) for mode in ("cache-aside", "write-through", "write-behind")}
    before = {}
    for mode, (sweep, foreground, _policy) in sweeps.items():
        sweep()  # warm the cache and the branch shapes
        before[mode] = foreground()
    best = dict.fromkeys(sweeps, float("inf"))
    for _ in range(WRITE_ROUNDS):
        for mode, (sweep, _foreground, _policy) in sweeps.items():
            best[mode] = min(best[mode], sweep())
    probes = {}
    for mode, (_sweep, foreground, policy) in sweeps.items():
        per_op = (foreground() - before[mode]) / (WRITE_OPS * WRITE_ROUNDS)
        wall = WRITE_OPS / best[mode]
        probes[mode] = {"wall": wall, "modeled": wall / (1.0 + STORAGE_RPC_WEIGHT * per_op)}
        if policy is not None:
            probes[mode].update(
                lost_writes=policy.stats.lost_writes, peak_dirty=policy.stats.peak_dirty
            )
    return probes


def write_through_overhead() -> dict[str, Any]:
    aside, through = _write_probes()["cache-aside"], _write_probes()["write-through"]
    return {
        "value": aside["wall"] / through["wall"],
        "note": f"wall ops/s: cache-aside {aside['wall']:,.0f}, "
        f"write-through {through['wall']:,.0f}",
    }


def write_behind_speedup() -> dict[str, Any]:
    through, behind = _write_probes()["write-through"], _write_probes()["write-behind"]
    return {
        "value": behind["modeled"] / through["modeled"],
        "lost_writes": behind["lost_writes"],
        "peak_dirty": behind["peak_dirty"],
        "note": f"modeled ops/s at S={STORAGE_RPC_WEIGHT}: write-through "
        f"{through['modeled']:,.0f}, write-behind {behind['modeled']:,.0f}; "
        f"lost {behind['lost_writes']}, peak dirty {behind['peak_dirty']}",
    }


# -- paired overheads on the client's hot path

#: gets per sweep, sweeps per block, and warm-up gets
SWEEP_OPS = 40_000
SWEEP_ROUNDS = 9
SWEEP_WARMUP = 20_000
#: one request in 1024 records a span tree; the rest pay one credit bump
TRACE_SAMPLE_RATE = 1.0 / 1024.0


def _build_client(arbitrated: bool = False):
    """A warmed ``FrontEndClient`` (cot 512/2048) and its Zipf-0.99 key stream.

    With ``arbitrated`` the policy rides in an arbiter whose switch
    margin is unreachable, so the live policy stays cot and the pair
    differs only by the arbiter's sampling and shadows.
    """
    arbitration = ArbitrationSpec(switch_margin=1e9) if arbitrated else None
    spec = PolicySpec(name="cot", cache_lines=512, tracker_lines=2048, arbitration=arbitration)
    generator = ZipfianGenerator(KEYS, theta=0.99, seed=42)
    keys = [f"usertable:{k}" for k in generator.keys_array(SWEEP_OPS)]
    client = FrontEndClient(
        CacheCluster(num_servers=8, value_size=1, virtual_nodes=1024), spec.build(0)
    )
    for key in keys[:SWEEP_WARMUP]:
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
) -> dict[str, Any]:
    """``changed_sweep``'s cost over ``base_sweep``'s: the minimum block median, less one.

    Each block alternates the two whole sweeps ``SWEEP_ROUNDS`` times, so
    drift within a round cancels, and takes the median of the per-round
    ratios, which shrugs off heavy-tailed scheduler noise. Contention only
    inflates a block, while a real hot-path regression lifts every block,
    hence the minimum. Whole sweeps, not finer interleaving: alternating
    at sub-sweep grain makes each client evict the other's working set.
    The collector is kept out of the timings.
    """
    medians: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _block in range(blocks):
            ratios: list[float] = []
            for round_index in range(SWEEP_ROUNDS):
                gc.collect()
                if round_index % 2 == 0:
                    base = base_sweep()
                    changed = changed_sweep()
                else:
                    changed = changed_sweep()
                    base = base_sweep()
                ratios.append(changed / base)
            medians.append(statistics.median(ratios) - 1.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"value": min(medians), "note": "blocks " + " ".join(f"{m:+.1%}" for m in medians)}


def tracing_overhead() -> dict[str, Any]:
    """Untraced vs traced sweeps, paired on one client (the tracer is flipped
    between sweeps): two separately built clients differ by several percent
    from memory layout alone."""
    client, keys = _build_client()
    tracer = Tracer(sample_rate=TRACE_SAMPLE_RATE)

    def sweep_with(config) -> float:
        client.tracer = config
        return _sweep(client, keys)

    for config in (tracer, None):  # specialise both branch shapes first
        sweep_with(config)
    return _paired_overhead(lambda: sweep_with(None), lambda: sweep_with(tracer), 3)


def arbiter_overhead() -> dict[str, Any]:
    """Pinned vs arbitrated sweeps. Two policy stacks cannot share one
    client, so the pair is unpaired and takes more blocks; its bound sits
    above the few points two clients differ by from layout alone."""
    pinned, keys = _build_client()
    arbitrated, _ = _build_client(arbitrated=True)
    return _paired_overhead(lambda: _sweep(pinned, keys), lambda: _sweep(arbitrated, keys), 5)


RATES: dict[str, Probe] = {
    **{
        f"policy_lookup_admit[{name}]": functools.partial(policy_lookup_admit, name)
        for name in POLICY_NAMES
    },
    **{
        probe.__name__: probe
        for probe in (
            tracker_track, hash_ring_lookup, hash_ring_replica_lookup, zipfian_generation,
            request_mix_generation, scrambled_zipfian_generation, engine_policy_stream,
            cot_resize_cycle,
        )
    },
}

ROWS: tuple[tuple[Row, Callable[[], dict[str, Any]]], ...] = (
    (Row("parallel_speedup@4", "x", "higher", 2.0, limits=(("mismatches", 0),), min_cpus=4),
     parallel_speedup),
    (Row("write_through_overhead", "x", "lower", 1.5), write_through_overhead),
    (Row("write_behind_speedup", "x", "higher", 1.3,
         limits=(("lost_writes", 0), ("peak_dirty", WRITE_DIRTY_LIMIT))), write_behind_speedup),
    (Row("tracing_overhead", "%", "lower", 0.05), tracing_overhead),
    (Row("arbiter_overhead", "%", "lower", 0.15), arbiter_overhead),
)


# -- judgement: pure, so tier-1 tests it on synthetic readings

def rate_row(name: str, baseline: dict[str, float]) -> Row:
    """The rate ``name`` as a row: at least ``RATE_FLOOR`` of its ``baseline`` value."""
    bound = RATE_FLOOR * baseline[name] if name in baseline else None
    return Row(name, "ops/s", "higher", bound)


def judge(row: Row, reading: dict[str, Any] | None, cpu_count: int) -> str:
    """``reading``'s verdict: ``ok``, ``skipped ...`` or ``FAIL ...``.

    ``reading`` is ``None`` when the run has no such row.
    """
    if reading is None:
        return "FAIL (not measured)"
    broken = [
        f"{fact} {reading[fact]:g} > {limit:g}"
        for fact, limit in row.limits
        if reading[fact] > limit
    ]
    if broken:
        return f"FAIL ({', '.join(broken)})"
    if row.bound is None:
        return "FAIL (no baseline value: record an entry)"
    if cpu_count < row.min_cpus:
        return f"skipped ({cpu_count} cpus < {row.min_cpus})"
    value = reading["value"]
    passed = value >= row.bound if row.better == "higher" else value <= row.bound
    return "ok" if passed else "FAIL"


def _show(unit: str, value: float | None) -> str:
    if value is None:
        return "-"
    if unit == "ops/s":
        return f"{value:,.0f}"
    return f"{value:+.2%}" if unit == "%" else f"{value:.2f}x"


def check(
    rows: list[Row],
    readings: dict[str, dict[str, Any]],
    baseline: dict[str, float],
    cpu_count: int,
) -> int:
    """Judge every row's reading, then fail each baseline row the table lost.

    Prints one line per row; returns 1 if any line failed, else 0.
    """
    failed = False
    print(f"{'row':30s} {'value':>13s} {'bound':>15s}  verdict")
    for row in rows:
        reading = readings.get(row.name)
        verdict = judge(row, reading, cpu_count)
        failed |= verdict.startswith("FAIL")
        reading = reading or {}
        sign = ">=" if row.better == "higher" else "<="
        extra = "".join(f"  {reading[key]}" for key in ("seconds", "note") if key in reading)
        print(f"{row.name:30s} {_show(row.unit, reading.get('value')):>13s} "
              f"{sign} {_show(row.unit, row.bound):>12s}  {verdict}{extra}")
    for name in sorted(baseline.keys() - {row.name for row in rows}):
        failed = True
        print(f"{name:30s} {'-':>13s} {'':>15s}  FAIL (in the baseline entry, not in the table)")
    return int(failed)


def timed(measure: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """Read a ratio row once, with its wall seconds."""
    started = time.perf_counter()
    reading = measure()
    reading["seconds"] = f"{time.perf_counter() - started:.1f}s"
    return reading


def fold(entries: list[dict[str, Any]], label: str, run: dict[str, Any]) -> None:
    """Add ``run`` (``calib_ms`` and ``rows``) to ``entries`` under ``label``.

    A new label appends an entry. The latest entry's label again folds the
    run into that entry, whose ``calib_ms`` and ``rows`` are then the
    per-row medians of its runs: one run can land wholly in one of a
    shared host's fast or slow spells, and a baseline taken from it would
    fail every run in the other.
    """
    if entries and entries[-1]["label"] == label and "runs" in entries[-1]:
        runs = entries.pop()["runs"] + [run]
    else:
        runs = [run]
    entries.append({
        "label": label,
        "recorded_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count() or 1,
        "calib_ms": statistics.median(r["calib_ms"] for r in runs),
        "rows": {name: statistics.median(r["rows"][name] for r in runs) for name in run["rows"]},
        "runs": runs,
    })


def record(label: str, readings: dict[str, dict[str, Any]], calib_s: float) -> None:
    """Record the run in ``BENCH_ops.json`` under ``label`` (see :func:`fold`)."""
    payload = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    run = {
        "calib_ms": round(1e3 * calib_s, 2),
        "rows": {name: reading["value"] for name, reading in readings.items()},
    }
    fold(payload["entries"], label, run)
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    runs = len(payload["entries"][-1]["runs"])
    print(f"recorded entry {label!r} ({runs} run{'s' * (runs > 1)}) -> "
          f"{BENCH_FILE.relative_to(REPO_ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="judge every row and exit 1 on any failure, recording nothing")
    parser.add_argument("--label", default="current",
                        help="label of the entry recorded without --check; the latest "
                        "entry's label again folds the run into it")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # As the ladder runs its child: the same dict and set layouts in every run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    baseline = json.loads(BENCH_FILE.read_text(encoding="utf-8"))["entries"][-1].get("rows", {})
    started = time.perf_counter()
    readings, calib_s = rate_readings(RATES, Calibrator())
    print(f"rates: {len(readings)} rows x {BLOCKS} interleaved blocks in "
          f"{time.perf_counter() - started:.0f}s, calibration {1e3 * calib_s:.1f} ms "
          f"(reference {1e3 * CALIB_REF_S:.1f})\n")
    for row, measure in ROWS:
        readings[row.name] = timed(measure)
    rows = [rate_row(name, baseline) for name in RATES] + [row for row, _measure in ROWS]
    failed = check(rows, readings, baseline, os.cpu_count() or 1)
    print(f"\nperf gate {'FAILED' if failed else 'passed'} in "
          f"{time.perf_counter() - started:.0f}s")
    if args.check:
        return failed
    record(args.label, readings, calib_s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
