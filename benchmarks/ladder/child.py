"""One workload, measured in this (fresh) process. Started by ``run.py``.

Modes:

* ``setup`` — build the system and warm it up; report only the set-up time.
* ``run``   — set up, then ``BLOCKS`` calibrated blocks with tracing off:
  the end-to-end metrics, the counters and the host diagnostics.
* ``trace`` — set up, then ``BLOCKS`` blocks with the span recorder on:
  the per-layer timings. ``run.py`` asks for a tenth of the operations
  (``--ops-scale``), because spans cost memory.

The last line of stdout is one JSON record.
"""

import time

T_START = time.perf_counter()  # set-up is charged from here: imports count

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from typing import Any  # noqa: E402

import probes  # noqa: E402
import spans  # noqa: E402
from calib import CALIB_REF_S, Calibrator, one_cpu  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

#: timed blocks per run; every metric is a median over them.
BLOCKS = 25
#: the ``--seconds`` the nominal rates and warm-ups of ``WORKLOADS`` are sized for.
NOMINAL_SECONDS = 10.0
#: operations in the stopwatched latency segment of an in-process block
#: (50 samples beyond each block's p99).
LATENCY_OPS = 5_000
#: requests replayed by each micro-probe of the traced run.
PROBE_REQUESTS = 2_000


def _percentile(ordered: list[int], q: float) -> int:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    return {
        name: [a - b for a, b in zip(value, before[name])]
        if isinstance(value, list) else value - before[name]
        for name, value in after.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(moved: dict[str, Any], ops: int, failed: int, attempted: int) -> dict[str, float]:
    """Metrics that are pure counts on the seeded stream (repeat bit for bit)."""
    shard_gets = moved["shard_gets"]
    lookups = sum(shard_gets)
    return {
        "error_rate": failed / attempted,
        "frontend_hit_ratio": _ratio(moved["hits"], moved["gets"]),
        "backend_imbalance": _ratio(max(shard_gets) * len(shard_gets), lookups),
        "storage_reads_per_op": moved["storage_reads"] / ops,
        "core.cache.insertions_per_kop": 1000 * moved["insertions"] / ops,
        "core.cache.evictions_per_kop": 1000 * moved["evictions"] / ops,
        "core.elastic.epochs": moved["epochs"],
        "core.elastic.resizes": moved["resizes"],
        "cluster.retry.retries": moved["retries"],
        "cluster.retry.failures": moved["retry_failures"],
        "cluster.backend.hit_ratio": _ratio(moved["backend_get_hits"], lookups),
        "cluster.backend.evictions_per_kop": 1000 * moved["backend_evictions"] / ops,
        "cluster.storage.reads": moved["storage_reads"],
        "cluster.storage.writes": moved["storage_writes"],
        "net.client.batch_depth_mean": _ratio(moved["client_requests"], moved["client_batches"]),
        "net.client.bytes_per_req": _ratio(moved["client_bytes"], moved["client_requests"]),
        "net.client.timeouts": moved["timeouts"],
        "net.client.reconnects": moved["reconnects"],
        "net.client.errors": moved["client_errors"],
        "net.server.batch_depth_mean": _ratio(moved["server_requests"], moved["server_batches"]),
        "net.server.bytes_per_req": _ratio(moved["server_bytes"], moved["server_requests"]),
        "net.server.protocol_errors": moved["protocol_errors"],
    }


def timing_metrics(blocks: list[dict[str, float]], moved: dict[str, Any]) -> dict[str, float]:
    """Medians over blocks, each block normalised by its own calibration."""
    median = statistics.median
    speed = [b["calib_s"] / CALIB_REF_S for b in blocks]  # >1: host slower than reference
    rates = [b["ops"] / b["wall_s"] * f for b, f in zip(blocks, speed)]
    load_cpu = sum(b["load_cpu_s"] for b in blocks)
    server_cpu = sum(b["server_cpu_s"] for b in blocks)
    return {
        "ops_per_s": median(rates),
        "lat_p50_us": median(b["p50_ns"] / f for b, f in zip(blocks, speed)) / 1e3,
        # Host interference only ever adds latency, and a burst of a few
        # dozen milliseconds is enough to lift the p99 of the block it lands
        # in; on a rough host most blocks catch one. The lower quartile of
        # the blocks' p99s is the tail the system has when left alone.
        "lat_p99_us": statistics.quantiles(
            [b["p99_ns"] / f for b, f in zip(blocks, speed)], n=4
        )[0] / 1e3,
        "cpu_us_per_op": 1e6 * median(
            (b["load_cpu_s"] + b["server_cpu_s"]) / b["ops"] / f
            for b, f in zip(blocks, speed)
        ),
        "host.calib_ms": 1e3 * median(b["calib_s"] for b in blocks),
        "host.raw_ops_per_s": median(b["ops"] / b["wall_s"] for b in blocks),
        "host.raw_lat_p50_us": median(b["p50_ns"] for b in blocks) / 1e3,
        "host.block_spread": _spread(rates),
        "lat_samples_per_block": min(b["lat_samples"] for b in blocks),
        "workloads.gen_ns_per_key": 1e9 * median(b["gen_s"] / b["items"] for b in blocks),
        "net.client.cpu_us_per_req": 1e6 * _ratio(load_cpu, moved["client_requests"]),
        "net.server.cpu_us_per_req": 1e6 * _ratio(server_cpu, moved["server_requests"]),
    }


def span_metrics(rows: list[list], ops: int, speed: float) -> dict[str, Any]:
    """Per-layer self times from the traced run's spans, at reference host speed."""
    table = spans.self_times(rows)

    def row(name: str) -> dict[str, Any]:
        return table.get(name, {"count": 0, "total_ns": 0, "self_ns": 0})

    def mean_ns(name: str) -> float:
        return _ratio(row(name)["total_ns"], row(name)["count"])

    roots = [row("client.get"), row("client.set")]
    root_ns = sum(r["total_ns"] for r in roots)
    client_self = sum(r["self_ns"] for r in roots) + row("client.fetch")["self_ns"]
    policy_self = row("policy.get_or_admit")["self_ns"] + row("policy.record_update")["self_ns"]
    times = {
        "core.cache.self_ns_per_op": policy_self / ops,
        "core.elastic.close_epoch_us": mean_ns("elastic.close_epoch") / 1e3,
        "cluster.client.self_ns_per_op": client_self / ops,
        "cluster.hashring.ns_per_lookup": mean_ns("ring.route"),
        "cluster.retry.self_ns_per_call": _ratio(
            row("guard.call")["self_ns"], row("guard.call")["count"]
        ),
        "cluster.backend.get_ns": mean_ns("shard.get"),
        "cluster.backend.set_ns": mean_ns("shard.set"),
        "cluster.backend.delete_ns": mean_ns("shard.delete"),
        "cluster.storage.get_ns": mean_ns("storage.get"),
        "cluster.storage.set_ns": mean_ns("storage.set"),
        "trace.root_ns_per_op": root_ns / ops,
    }
    return {
        **{name: value / speed for name, value in times.items()},
        "cluster.hashring.lookups_per_op": row("ring.route")["count"] / ops,
        "trace.reconcile_ratio": _ratio(sum(r["self_ns"] for r in table.values()), root_ns),
        "trace.self_ns_share": {
            name: r["self_ns"] / root_ns for name, r in sorted(table.items())
        },
    }


def timed_blocks(workload: Any, calibrator: Calibrator, calib_s: float, ops: int,
                 lat_ops: int, recorder: spans.Recorder | None) -> tuple[list[dict], list, int]:
    """Run ``BLOCKS`` blocks of ``ops + lat_ops`` operations, a calibration between each.

    Untraced, ``ops`` operations are the throughput segment and ``lat_ops``
    more a stopwatched one (over sockets every operation is stopwatched and
    ``lat_ops`` is 0). Traced, the whole block runs under spans. Returns the
    block records, the last block's items and the count of wrong reads.
    """
    blocks, items, wrong = [], [], 0
    for _ in range(BLOCKS):
        start = time.perf_counter()
        items = workload.make_block(ops + lat_ops)
        block = {"items": len(items), "gen_s": time.perf_counter() - start}
        latencies = [0]
        server_cpu = workload.server_cpu_s()
        load_cpu = time.process_time()
        start = time.perf_counter()
        if recorder is not None:
            recorder.on = True
            results = workload.run_traced(items)
            recorder.on = False
        elif workload.stopwatch_all:
            results, latencies = workload.run_stopwatched(items)
        else:
            results = workload.run(items[:ops])
        block["wall_s"] = time.perf_counter() - start
        block["load_cpu_s"] = time.process_time() - load_cpu
        block["server_cpu_s"] = workload.server_cpu_s() - server_cpu
        block["ops"] = len(results)
        if len(results) < len(items):
            tail, latencies = workload.run_stopwatched(items[ops:])
            results += tail
        wrong += workload.check(items, results)
        latencies.sort()
        calib_after = calibrator.run()
        block.update(
            calib_s=(calib_s + calib_after) / 2,
            p50_ns=_percentile(latencies, 0.50),
            p99_ns=_percentile(latencies, 0.99),
            lat_samples=len(latencies),
        )
        calib_s = calib_after
        blocks.append(block)
    return blocks, items, wrong


def measure(
    name: str, seed: int, seconds: float, mode: str, ops_scale: float, out_dir: str
) -> dict[str, Any]:
    spec = WORKLOADS[name]
    recorder = spans.Recorder() if mode == "trace" else None
    scale = min(1.0, seconds / NOMINAL_SECONDS)
    imports_s = time.perf_counter() - T_START
    with contextlib.ExitStack() as stack:
        if spec.get("one_cpu"):
            stack.enter_context(one_cpu())
        calibrator = Calibrator()
        calib_s = calibrator.run()
        built_at = time.perf_counter()
        workload = build(name, seed, recorder)
        stack.callback(workload.close)
        warm = workload.make_block(max(50, round(spec["warm_ops"] * scale)))
        failed = workload.check(warm, workload.run(warm))
        attempted = len(warm)
        setup_raw_s = imports_s + time.perf_counter() - built_at
        calib_after = calibrator.run()
        record: dict[str, Any] = {
            "workload": name, "seed": seed, "seconds": seconds, "mode": mode,
            "setup_s": setup_raw_s * CALIB_REF_S / ((calib_s + calib_after) / 2),
        }
        if mode != "setup":
            # A block is sized to take seconds / BLOCKS at the nominal rate; in
            # process, the last lat_ops of it are the stopwatched segment.
            block_ops = max(50, round(spec["rate"] * seconds / BLOCKS * ops_scale))
            lat_ops = 0
            if not workload.stopwatch_all:
                lat_ops = max(100, round(LATENCY_OPS * scale * ops_scale))
            ops = max(50, block_ops - lat_ops)
            gc.collect()
            gc.freeze()
            stack.callback(gc.unfreeze)
            before = workload.counters()
            blocks, items, wrong = timed_blocks(
                workload, calibrator, calib_after, ops, lat_ops, recorder
            )
            moved = _delta(workload.counters(), before)
            total_ops = BLOCKS * (ops + lat_ops)
            failed += wrong
            attempted += total_ops
            metrics = count_metrics(moved, total_ops, failed, attempted)
            timings = timing_metrics(blocks, moved)
            metrics["core.elastic.cache_lines"], metrics["core.elastic.tracker_lines"] = (
                workload.cache_sizes()
            )
            if recorder is None:
                metrics.update(timings)
            else:
                metrics["trace.ns_per_op"] = 1e9 / timings["ops_per_s"]
                speed = statistics.median(b["calib_s"] for b in blocks) / CALIB_REF_S
                rows = recorder.rows()
                metrics.update(span_metrics(rows, total_ops, speed))
                sample = workload.wire_sample(items[:PROBE_REQUESTS])
                probed = {**probes.proto(sample), **probes.round_trips(sample)}
                metrics.update({metric: value / speed for metric, value in probed.items()})
                os.makedirs(out_dir, exist_ok=True)
                spans.dump(
                    os.path.join(out_dir, f"trace-{name}.json"), rows,
                    workload=name, seed=seed, seconds=seconds, ops=total_ops,
                )
            record["metrics"] = metrics
            record["blocks"] = blocks
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, workload.server_rss_kb())
    record.update(attempted=attempted, failed=failed, peak_rss_mb=rss_kb / 1024)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--ops-scale", type=float, default=1.0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    record = measure(
        args.workload, args.seed, args.seconds, args.mode, args.ops_scale, args.out_dir
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
