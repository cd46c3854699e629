"""Closed-loop load harness and two-plane equivalence gate.

Two jobs live here:

* :func:`run_network_load` — drive the socket data plane at scale with
  **real processes**: one spawned server process per shard, one spawned
  client process per front end (the PR-5 fabric's spawn-context /
  :func:`~repro.workloads.seeding.spawn_seed` discipline), each client
  running a closed loop of ``concurrency`` asyncio workers over the
  pipelined transport. Per-request wall time is measured with
  ``perf_counter_ns`` and recorded into
  :class:`~repro.obs.hist.LatencyHistogram`\\ s that merge exactly
  across processes — the first numbers in this repo that include real
  serialization and syscall cost.
* :func:`decision_equivalence` — replay one seeded request stream (a
  get/set/delete mix) through the in-process plane and through the
  network plane and compare every observable cache decision: per-front-
  end hits/misses/accesses and cached-key sets, per-shard
  gets/hits/sets/deletes/evictions (admissions and invalidations), and
  storage reads/writes. The planes share all decision code
  (DESIGN.md §15), so the traces must be *identical* — this is the gate
  ``verify.sh`` and ``run_perf_gate.py --network`` run.

:func:`measure_pipelining` isolates the pipelining win for the perf
gate: same request count against one server process, depth 1 (strictly
sequential round-trips) vs depth N (N concurrent workers on one
connection), reported as a throughput ratio.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.cluster.backend import BackendCacheServer
from repro.cluster.hashring import ConsistentHashRing
from repro.obs.hist import LatencyHistogram
from repro.policies.base import MISSING
from repro.workloads.base import format_key
from repro.workloads.seeding import spawn_seed

__all__ = [
    "NetLoadReport",
    "decision_equivalence",
    "decision_trace",
    "measure_pipelining",
    "run_network_load",
]

_HOST = "127.0.0.1"


# --------------------------------------------------------------------------
# worker process mains (module-level: spawn requires picklable targets)


def _server_main(server_id, host, capacity_bytes, ready_q, stop_evt, result_q):
    """One shard server process: serve until told to stop, then drain."""
    from repro.net.server import ShardServer

    backend = BackendCacheServer(
        server_id, capacity_bytes=capacity_bytes, default_value_size=1
    )

    async def main() -> None:
        server = ShardServer(backend, host=host)
        await server.start()
        ready_q.put((server_id, server.port))
        while not stop_evt.is_set():
            await asyncio.sleep(0.02)
        await server.stop()
        stats = server.stats
        result_q.put(
            (
                "server",
                server_id,
                {
                    "requests": stats.requests,
                    "batches": stats.batches,
                    "bytes_in": stats.bytes_in,
                    "bytes_out": stats.bytes_out,
                    "connections": stats.connections,
                    "batch_depths": dict(stats.batch_depths),
                    "backend_gets": backend.stats.gets,
                    "backend_sets": backend.stats.sets,
                },
            )
        )

    asyncio.run(main())


def _client_main(
    index,
    addresses,
    requests,
    concurrency,
    key_space,
    theta,
    value_bytes,
    seed,
    result_q,
):
    """One closed-loop client process: ``concurrency`` pipelined workers."""
    from repro.net.client import NetClientStats, ShardEndpoint
    from repro.workloads.zipfian import ZipfianGenerator

    generator = ZipfianGenerator(
        key_space, theta=theta, seed=spawn_seed(seed, index)
    )
    keys = [format_key(generator.next_key()) for _ in range(requests)]
    ring = ConsistentHashRing(sorted(addresses), virtual_nodes=128)
    stats = NetClientStats()
    histogram = LatencyHistogram()
    payload = b"x" * value_bytes

    async def main() -> float:
        endpoints = {
            sid: ShardEndpoint(sid, host, port, pool_size=1, stats=stats)
            for sid, (host, port) in addresses.items()
        }
        counter = itertools.count()

        async def worker() -> None:
            while True:
                i = next(counter)
                if i >= requests:
                    return
                key = keys[i]
                endpoint = endpoints[ring.server_for(key)]
                start = time.perf_counter_ns()
                value = await endpoint.get(key)
                if value is MISSING:
                    await endpoint.set(key, payload)
                histogram.record((time.perf_counter_ns() - start) * 1e-9)

        begin = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(concurrency)))
        elapsed = time.perf_counter() - begin
        for endpoint in endpoints.values():
            await endpoint.close()
        return elapsed

    elapsed = asyncio.run(main())
    result_q.put(
        (
            "client",
            index,
            {
                "requests": requests,
                "elapsed": elapsed,
                "histogram": histogram,
                "connections": stats.connections,
                "reconnects": stats.reconnects,
                "timeouts": stats.timeouts,
                "batches": stats.batches,
                "bytes_in": stats.bytes_in,
                "bytes_out": stats.bytes_out,
                "batch_depths": dict(stats.batch_depths),
            },
        )
    )


# --------------------------------------------------------------------------
# closed-loop load


@dataclass
class NetLoadReport:
    """Aggregate result of one closed-loop network load run."""

    requests: int
    elapsed: float
    num_servers: int
    num_clients: int
    concurrency: int
    histogram: LatencyHistogram
    client_stats: dict[str, Any] = field(default_factory=dict)
    server_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Requests per wall-clock second (slowest client bounds it)."""
        return self.requests / self.elapsed if self.elapsed else 0.0

    @property
    def processes(self) -> int:
        return self.num_servers + self.num_clients

    @property
    def throughput_per_core(self) -> float:
        """Throughput normalized by the cores the run could occupy."""
        cores = min(self.processes, os.cpu_count() or 1)
        return self.throughput / max(1, cores)


def run_network_load(
    num_servers: int = 2,
    num_clients: int = 2,
    requests_per_client: int = 10_000,
    concurrency: int = 32,
    key_space: int = 5_000,
    theta: float = 0.9,
    value_bytes: int = 64,
    capacity_bytes: int = 1 << 26,
    seed: int = 42,
    timeout: float = 120.0,
) -> NetLoadReport:
    """Spawn server + client processes, run the closed loop, merge results."""
    ctx = multiprocessing.get_context("spawn")
    ready_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    stop_evt = ctx.Event()
    server_ids = [f"cache-{i}" for i in range(num_servers)]
    servers = [
        ctx.Process(
            target=_server_main,
            args=(sid, _HOST, capacity_bytes, ready_q, stop_evt, result_q),
            daemon=True,
        )
        for sid in server_ids
    ]
    for proc in servers:
        proc.start()
    try:
        addresses = {}
        for _ in server_ids:
            sid, port = ready_q.get(timeout=30.0)
            addresses[sid] = (_HOST, port)
        clients = [
            ctx.Process(
                target=_client_main,
                args=(
                    i,
                    addresses,
                    requests_per_client,
                    concurrency,
                    key_space,
                    theta,
                    value_bytes,
                    seed,
                    result_q,
                ),
                daemon=True,
            )
            for i in range(num_clients)
        ]
        for proc in clients:
            proc.start()
        client_results = []
        deadline = time.monotonic() + timeout
        for _ in clients:
            remaining = max(0.1, deadline - time.monotonic())
            client_results.append(result_q.get(timeout=remaining))
        for proc in clients:
            proc.join(timeout=10.0)
    finally:
        stop_evt.set()
    server_results = []
    for _ in servers:
        try:
            server_results.append(result_q.get(timeout=10.0))
        except Exception:
            break
    for proc in servers:
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - stuck-socket backstop
            proc.terminate()

    histogram = LatencyHistogram()
    total_requests = 0
    slowest = 0.0
    client_stats: dict[str, Any] = {
        "connections": 0,
        "reconnects": 0,
        "timeouts": 0,
        "batches": 0,
        "bytes_in": 0,
        "bytes_out": 0,
        "batch_depths": {},
    }
    for _, _, payload in client_results:
        total_requests += payload["requests"]
        slowest = max(slowest, payload["elapsed"])
        histogram.merge(payload["histogram"])
        for field_name in (
            "connections",
            "reconnects",
            "timeouts",
            "batches",
            "bytes_in",
            "bytes_out",
        ):
            client_stats[field_name] += payload[field_name]
        for depth, count in payload["batch_depths"].items():
            client_stats["batch_depths"][depth] = (
                client_stats["batch_depths"].get(depth, 0) + count
            )
    server_stats = {sid: payload for _, sid, payload in server_results}
    return NetLoadReport(
        requests=total_requests,
        elapsed=slowest,
        num_servers=num_servers,
        num_clients=num_clients,
        concurrency=concurrency,
        histogram=histogram,
        client_stats=client_stats,
        server_stats=server_stats,
    )


# --------------------------------------------------------------------------
# pipelining speedup


def measure_pipelining(
    requests: int = 4_000,
    depth: int = 32,
    key_space: int = 512,
    seed: int = 13,
) -> dict[str, float]:
    """Throughput at pipeline depth ``depth`` vs depth 1, one server.

    One spawned server process; the client runs in this process on one
    persistent connection (pool size 1) so the *only* difference between
    the two measurements is the number of outstanding requests. The same
    requests then go through a blocking :class:`~repro.net.plane.ShardProxy`,
    so the median lockstep round trip is known for both transports.
    Returns ``{"pipelined": req/s, "unpipelined": req/s, "speedup": x,
    "awaited_p50_us": us, "proxy_p50_us": us}``.
    """
    from repro.net.client import NetClientStats, ShardEndpoint
    from repro.net.plane import ShardProxy

    ctx = multiprocessing.get_context("spawn")
    ready_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    stop_evt = ctx.Event()
    proc = ctx.Process(
        target=_server_main,
        args=("cache-0", _HOST, 1 << 26, ready_q, stop_evt, result_q),
        daemon=True,
    )
    proc.start()
    try:
        _, port = ready_q.get(timeout=30.0)
        keys = [format_key(i % key_space) for i in range(requests)]

        async def drive(concurrency: int) -> tuple[float, list[int]]:
            endpoint = ShardEndpoint(
                "cache-0", _HOST, port, pool_size=1, stats=NetClientStats()
            )
            # Prime the connection + working set so both measurements
            # run against a warm server.
            for key in sorted(set(keys)):
                await endpoint.set(key, b"v")
            counter = itertools.count()
            latencies: list[int] = []

            async def worker() -> None:
                while True:
                    i = next(counter)
                    if i >= requests:
                        return
                    start = time.perf_counter_ns()
                    await endpoint.get(keys[i])
                    latencies.append(time.perf_counter_ns() - start)

            begin = time.perf_counter()
            await asyncio.gather(*(worker() for _ in range(concurrency)))
            elapsed = time.perf_counter() - begin
            await endpoint.close()
            return elapsed, latencies

        elapsed, awaited = asyncio.run(drive(1))
        sequential = requests / elapsed
        pipelined = requests / asyncio.run(drive(depth))[0]
        proxy, blocked = ShardProxy(ShardEndpoint("cache-0", _HOST, port)), []
        try:
            for key in keys:
                start = time.perf_counter_ns()
                proxy.get(key)
                blocked.append(time.perf_counter_ns() - start)
        finally:
            proxy.close()
    finally:
        stop_evt.set()
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - stuck-socket backstop
            proc.terminate()
    return {
        "unpipelined": sequential,
        "pipelined": pipelined,
        "depth": float(depth),
        "speedup": pipelined / sequential if sequential else 0.0,
        "awaited_p50_us": statistics.median(awaited) / 1e3,
        "proxy_p50_us": statistics.median(blocked) / 1e3,
    }


# --------------------------------------------------------------------------
# decision equivalence


def _trace_value(key: Hashable) -> Any:
    """Module-level storage value factory (deterministic, picklable)."""
    return ("value-of", key)


def decision_trace(
    network: bool,
    accesses: int = 10_000,
    num_servers: int = 2,
    num_front_ends: int = 1,
    key_space: int = 2_000,
    theta: float = 0.9,
    cache_lines: int = 128,
    write_fraction: float = 0.08,
    delete_fraction: float = 0.02,
    seed: int = 7,
) -> dict[str, Any]:
    """Every observable cache decision of one seeded mixed request stream.

    The stream (key order, operation mix) is a pure function of the
    arguments; ``network`` only selects which plane serves it. The
    returned dict captures admissions (cached-key sets), hits/misses,
    per-shard lookups/writes/deletes/evictions (invalidations included)
    and storage traffic — everything the two planes must agree on.
    """
    import random

    from repro.cluster.client import FrontEndClient
    from repro.cluster.cluster import CacheCluster
    from repro.cluster.storage import PersistentStore
    from repro.net.plane import NetworkPlane
    from repro.policies.registry import make_policy
    from repro.workloads.zipfian import ZipfianGenerator

    storage = PersistentStore(value_factory=_trace_value)
    cluster = CacheCluster(
        num_servers=num_servers,
        capacity_bytes=max(64, cache_lines) * 4,
        virtual_nodes=64,
        value_size=1,
        storage=storage,
    )
    plane = NetworkPlane(cluster).start() if network else None
    target = plane if plane is not None else cluster
    try:
        front_ends = [
            FrontEndClient(
                target,
                make_policy("cot", cache_lines),
                client_id=f"front-{i}",
            )
            for i in range(num_front_ends)
        ]
        generators = [
            ZipfianGenerator(key_space, theta=theta, seed=spawn_seed(seed, i))
            for i in range(num_front_ends)
        ]
        op_rng = random.Random(seed * 1_000_003)
        per_client = accesses // num_front_ends
        for step in range(per_client):
            for fe, generator in zip(front_ends, generators):
                key = format_key(generator.next_key())
                draw = op_rng.random()
                if draw < write_fraction:
                    fe.set(key, ("w", key, step))
                elif draw < write_fraction + delete_fraction:
                    fe.delete(key)
                else:
                    fe.get(key)
        trace: dict[str, Any] = {
            "front_ends": [
                {
                    "accesses": fe.policy.stats.accesses,
                    "hits": fe.policy.stats.hits,
                    "misses": fe.policy.stats.misses,
                    "cached_keys": sorted(map(str, fe.policy.cached_keys())),
                }
                for fe in front_ends
            ],
            "shards": {
                sid: {
                    "gets": s.stats.gets,
                    "get_hits": s.stats.get_hits,
                    "sets": s.stats.sets,
                    "deletes": s.stats.deletes,
                    "evictions": s.stats.evictions,
                    "keys": sorted(map(str, s.keys())),
                }
                for sid, s in (
                    (sid, cluster.server(sid)) for sid in cluster.server_ids
                )
            },
            "storage": {
                "reads": storage.stats.reads,
                "writes": storage.stats.writes,
                "deletes": storage.stats.deletes,
            },
        }
        return trace
    finally:
        if plane is not None:
            plane.close()


def decision_equivalence(**kwargs: Any) -> tuple[bool, dict[str, Any], dict[str, Any]]:
    """Run :func:`decision_trace` on both planes; ``True`` iff identical."""
    in_process = decision_trace(network=False, **kwargs)
    networked = decision_trace(network=True, **kwargs)
    return in_process == networked, in_process, networked
