"""The ladder's five workloads: the system each one builds and how it is driven.

Every workload is built from public constructors of ``repro.core``,
``repro.policies``, ``repro.cluster``, ``repro.net`` and
``repro.workloads`` and is driven through public methods only. One
workload object is one *set-up*: constructing it builds the serving
system, and the caller (``child.py``) then warms it up and times blocks
of operations made by :meth:`make_block`.

``WORKLOADS`` states each workload's warm-up and its nominal rate on the
landing host, from which ``child.py`` sizes a run; a run's operation
counts — and with them every count-based metric — are a pure function
of ``(workload, seed, seconds)``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
from time import perf_counter_ns
from typing import Any, Callable, Hashable

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.retry import ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.core.cache import CoTCache
from repro.core.elastic import ElasticCoTClient
from repro.errors import ReproError
from repro.net.client import NetClientStats, ShardEndpoint
from repro.net.plane import NetworkPlane
from repro.policies.base import MISSING
from repro.workloads.base import format_key
from repro.workloads.mixer import OperationMixer
from repro.workloads.request import OpType
from repro.workloads.seeding import spawn_seed
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator

from spans import Recorder, TracedCluster, TracedGuard, TracedPolicy

__all__ = ["WORKLOADS", "build"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_KEY_SPACE = 1_000_000


def dataset_value(key: Hashable) -> Any:
    """The pre-loaded record of a never-written key (also the oracle's answer)."""
    return ("value-of", key, 0)


#: every counter a workload reports, at zero (a layer it lacks stays there)
NO_COUNTS: dict[str, Any] = dict.fromkeys(
    (
        "gets", "hits", "insertions", "evictions", "epochs", "resizes",
        "backend_get_hits", "backend_sets", "backend_deletes", "backend_evictions",
        "storage_reads", "storage_writes", "guard_calls", "retries", "retry_failures",
        "client_requests", "client_batches", "client_bytes",
        "timeouts", "reconnects", "client_errors",
        "server_requests", "server_batches", "server_bytes", "protocol_errors",
    ),
    0,
)


# --------------------------------------------------------------------------
# front-end client workloads (in process, and over the socket plane)


class _TracedElastic(ElasticCoTClient):
    """The elastic client with its policy proxied and ``close_epoch`` spanned."""

    def __init__(self, recorder: Recorder, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        self.policy = TracedPolicy(self.cot, recorder)

    def close_epoch(self):
        rec = self.recorder
        if not rec.on:
            return super().close_epoch()
        index = rec.begin("elastic.close_epoch")
        try:
            return super().close_epoch()
        finally:
            rec.end(index)


class FrontEnd:
    """One front-end client over a cluster (or the network plane of one).

    ``read_fraction=None`` makes a read-only key stream driven through
    ``client.get``; otherwise an :class:`OperationMixer` makes get/set
    requests driven through ``client.execute``.
    """

    def __init__(
        self,
        seed: int,
        recorder: Recorder | None,
        *,
        shards: int,
        elastic: bool,
        theta: float | None,
        read_fraction: float | None,
        network: bool,
    ) -> None:
        self.recorder = recorder
        #: over sockets every operation is stopwatched; in process a block
        #: is a throughput segment plus a short stopwatched one
        self.stopwatch_all = network
        self.cluster = CacheCluster(
            num_servers=shards, storage=PersistentStore(value_factory=dataset_value)
        )
        self.plane = NetworkPlane(self.cluster, pool_size=1) if network else None
        try:
            target: Any = self.plane.start() if self.plane else self.cluster
            guard = ClusterGuard(self.cluster.server_ids)
            if recorder is not None:
                target = TracedCluster(target, recorder)
                guard = TracedGuard(guard, recorder)
            if elastic:
                # Started next to the sizes the controller settles on for
                # this stream (it ends at 1024/16384 for every seed within
                # 300k accesses); from the paper's 2/4 start the end size
                # depends on the seed (512-1024 / 2048-8192), and the
                # ladder would price the controller's quantisation.
                sizes = dict(
                    target_imbalance=1.1, initial_cache=1024,
                    initial_tracker=16384, guard=guard,
                )
                if recorder is None:
                    self.client = ElasticCoTClient(target, **sizes)
                else:
                    self.client = _TracedElastic(recorder, target, **sizes)
            else:
                policy: Any = CoTCache(512, 2048)
                if recorder is not None:
                    policy = TracedPolicy(policy, recorder)
                self.client = FrontEndClient(target, policy, guard=guard)
            if theta is None:
                generator = UniformGenerator(_KEY_SPACE, seed=seed)
            else:
                generator = ZipfianGenerator(_KEY_SPACE, theta=theta, seed=seed)
            if read_fraction is None:
                self._source = lambda n: [
                    format_key(k) for k in generator.keys_array(n)
                ]
                self._do: Callable[[Any], Any] = self.client.get
            else:
                mixer = OperationMixer(
                    generator, read_fraction=read_fraction, seed=spawn_seed(seed, 1)
                )
                self._source = mixer.next_requests
                self._do = self.client.execute
        except BaseException:
            self.close()
            raise
        #: the oracle: last value written per key (absent = dataset value)
        self._written: dict[str, Any] = {}

    # ---------------------------------------------------------------- driving

    def make_block(self, ops: int) -> list:
        return self._source(ops)

    def run(self, items: list) -> list:
        """Throughput segment: the tightest loop Python has, results kept."""
        do = self._do
        return [do(item) for item in items]

    def run_stopwatched(self, items: list) -> tuple[list, list[int]]:
        """Every operation timed on its own."""
        do = self._do
        clock = perf_counter_ns
        results, latencies = [], []
        for item in items:
            start = clock()
            results.append(do(item))
            latencies.append(clock() - start)
        return results, latencies

    def run_traced(self, items: list) -> list:
        """Every operation under a ``client.get`` / ``client.set`` root span."""
        do, rec = self._do, self.recorder
        results = []
        for item in items:
            name = "client.get" if type(item) is str or item.op is OpType.GET else "client.set"
            index = rec.begin(name)
            try:
                results.append(do(item))
            finally:
                rec.end(index)
        return results

    def check(self, items: list, results: list) -> int:
        """Replay the block against the oracle; returns the wrong reads."""
        written = self._written
        wrong = 0
        for item, result in zip(items, results):
            if type(item) is str:
                wrong += result != dataset_value(item)
            elif item.op is OpType.GET:
                expected = written.get(item.key, MISSING)
                if expected is MISSING:
                    expected = dataset_value(item.key)
                wrong += result != expected
            else:
                written[item.key] = item.value
        return wrong

    def wire_sample(self, items: list) -> list[tuple[str, str, Any]]:
        """The shard requests ``items`` turn into when every read misses locally."""
        return [
            ("get", item, dataset_value(item)) if type(item) is str
            else ("get", item.key, dataset_value(item.key)) if item.op is OpType.GET
            else ("delete", item.key, None)
            for item in items
        ]

    # --------------------------------------------------------------- counters

    def server_cpu_s(self) -> float:
        return 0.0  # the shard servers, if any, run inside this process

    def counters(self) -> dict[str, Any]:
        policy, guard = self.client.policy.stats, self.client.guard.stats
        epochs = getattr(self.client, "history", [])  # the elastic client's epoch records
        shards = [self.cluster.server(sid).stats for sid in self.cluster.server_ids]
        storage = self.cluster.storage.stats
        out = {
            **NO_COUNTS,
            "gets": policy.hits + policy.misses,
            "hits": policy.hits,
            "insertions": policy.insertions,
            "evictions": policy.evictions,
            "epochs": len(epochs),
            "resizes": sum(
                (e.new_cache_capacity, e.new_tracker_capacity)
                != (e.snapshot.cache_capacity, e.snapshot.tracker_capacity)
                for e in epochs
            ),
            "shard_gets": [s.gets for s in shards],
            "backend_get_hits": sum(s.get_hits for s in shards),
            "backend_sets": sum(s.sets for s in shards),
            "backend_deletes": sum(s.deletes for s in shards),
            "backend_evictions": sum(s.evictions for s in shards),
            "storage_reads": storage.reads,
            "storage_writes": storage.writes,
            "guard_calls": guard.operations,
            "retries": guard.retries,
            "retry_failures": guard.failures,
        }
        if self.plane is not None:
            wire = self.plane.client_stats
            served = list(self.plane.server_stats().values())
            out.update(
                client_requests=wire.requests,
                client_batches=wire.batches,
                client_bytes=wire.bytes_in + wire.bytes_out,
                timeouts=wire.timeouts,
                reconnects=wire.reconnects,
                client_errors=wire.errors,
                server_requests=sum(s.requests for s in served),
                server_batches=sum(s.batches for s in served),
                server_bytes=sum(s.bytes_in + s.bytes_out for s in served),
                protocol_errors=sum(s.protocol_errors for s in served),
            )
        return out

    def cache_sizes(self) -> tuple[int, int]:
        """Front-end cache and tracker lines right now (the elastic client moves them)."""
        return self.client.policy.capacity, self.client.policy.tracker_capacity

    def server_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        if self.plane is not None:
            self.plane.close()


# --------------------------------------------------------------------------
# pipelined socket workload (own server process, asyncio closed loop)

PIPELINE_WORKERS = 32
_PIPELINE_KEY_SPACE = 100_000
_PAYLOAD_BYTES = 64


def payload_of(key: str) -> bytes:
    """The 64-byte value of ``key`` (key-dependent, so a crossed reply shows)."""
    return key.encode("ascii").ljust(_PAYLOAD_BYTES, b".")


class Pipelined:
    """32 closed-loop asyncio workers over two ``ShardEndpoint``s.

    One request is a ``get`` followed, on a miss, by a ``set`` of the
    key's payload. There is no front-end cache and no storage layer.
    """

    stopwatch_all = True

    def __init__(self, seed: int, recorder: Recorder | None) -> None:
        self.recorder = recorder
        self._loop = asyncio.new_event_loop()
        self.stats = NetClientStats()
        self._endpoints: dict[str, ShardEndpoint] = {}
        self._last_snapshot: dict[str, Any] = {}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        self._server = subprocess.Popen(
            [sys.executable, os.path.join(_HERE, "netserver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ports = json.loads(self._server.stdout.readline())["ports"]
            self._endpoints = {
                sid: ShardEndpoint(sid, "127.0.0.1", port, pool_size=1, stats=self.stats)
                for sid, port in ports.items()
            }
            self._ring = ConsistentHashRing(sorted(ports), virtual_nodes=128)
            self._generator = ZipfianGenerator(_PIPELINE_KEY_SPACE, theta=0.99, seed=seed)
        except BaseException:
            self.close()
            raise

    # ---------------------------------------------------------------- driving

    def make_block(self, ops: int) -> list[str]:
        return [format_key(k) for k in self._generator.keys_array(ops)]

    async def _drive(self, keys: list[str], workers: int) -> tuple[list, list[int]]:
        endpoints, route, rec = self._endpoints, self._ring.server_for, self.recorder
        traced = rec is not None and rec.on
        results: list[Any] = [None] * len(keys)
        latencies = [0] * len(keys)
        counter = itertools.count()

        async def call(name: str, parent: int, coro: Any) -> Any:
            if not traced:
                return await coro
            index = rec.open(name, parent)
            try:
                return await coro
            finally:
                rec.close(index)

        async def worker() -> None:
            while True:
                i = next(counter)
                if i >= len(keys):
                    return
                key = keys[i]
                root = rec.open("client.get") if traced else -1
                start = perf_counter_ns()
                try:
                    if traced:
                        span = rec.open("ring.route", root)
                        endpoint = endpoints[route(key)]
                        rec.close(span)
                    else:
                        endpoint = endpoints[route(key)]
                    value = await call("shard.get", root, endpoint.get(key))
                    if value is MISSING:
                        await call("shard.set", root, endpoint.set(key, payload_of(key)))
                except ReproError as exc:  # timeouts, dead sockets, protocol damage
                    value = exc
                latencies[i] = perf_counter_ns() - start
                if traced:
                    rec.close(root)
                results[i] = value

        await asyncio.gather(*(worker() for _ in range(workers)))
        return results, latencies

    def run_stopwatched(self, keys: list[str], workers: int = PIPELINE_WORKERS):
        return self._loop.run_until_complete(self._drive(keys, workers))

    def run(self, keys: list[str]) -> list:
        return self.run_stopwatched(keys)[0]

    run_traced = run

    def check(self, keys: list[str], results: list) -> int:
        return sum(
            value is not MISSING and value != payload_of(key)
            for key, value in zip(keys, results)
        )

    def wire_sample(self, keys: list[str]) -> list[tuple[str, str, Any]]:
        return [("get", key, payload_of(key)) for key in keys]

    # --------------------------------------------------------------- counters

    def _server_snapshot(self) -> dict[str, Any]:
        server = self._server
        if server.poll() is None:
            server.stdin.write("stats\n")
            server.stdin.flush()
            self._last_snapshot = json.loads(server.stdout.readline())
        return self._last_snapshot

    def server_cpu_s(self) -> float:
        return self._server_snapshot()["cpu_s"]

    def server_rss_kb(self) -> int:
        return self._last_snapshot.get("rss_kb", 0)

    def counters(self) -> dict[str, Any]:
        shards = list(self._server_snapshot()["shards"].values())
        wire = self.stats
        return {
            **NO_COUNTS,
            "shard_gets": [s["backend_gets"] for s in shards],
            "backend_get_hits": sum(s["backend_get_hits"] for s in shards),
            "backend_sets": sum(s["backend_sets"] for s in shards),
            "backend_deletes": sum(s["backend_deletes"] for s in shards),
            "backend_evictions": sum(s["backend_evictions"] for s in shards),
            "client_requests": wire.requests,
            "client_batches": wire.batches,
            "client_bytes": wire.bytes_in + wire.bytes_out,
            "timeouts": wire.timeouts,
            "reconnects": wire.reconnects,
            "client_errors": wire.errors,
            "server_requests": sum(s["requests"] for s in shards),
            "server_batches": sum(s["batches"] for s in shards),
            "server_bytes": sum(s["bytes_in"] + s["bytes_out"] for s in shards),
            "protocol_errors": sum(s["protocol_errors"] for s in shards),
        }

    def cache_sizes(self) -> tuple[int, int]:
        return 0, 0  # no front-end cache on this path

    def close(self) -> None:
        """Close the sockets, then stop the server process and wait for it."""
        server = self._server
        try:
            if not self._loop.is_closed():
                for endpoint in self._endpoints.values():
                    self._loop.run_until_complete(endpoint.close())
                self._loop.close()
            if server.poll() is None:
                # "stop" (like EOF) makes the server drain, report and exit.
                tail, _ = server.communicate("stop\n", timeout=15)
                if tail.strip():
                    self._last_snapshot = json.loads(tail.strip().splitlines()[-1])
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()


# --------------------------------------------------------------------------
# the table: name -> (why, nominal warm-up ops, nominal ops/s, factory)

WORKLOADS: dict[str, dict[str, Any]] = {
    "read-skewed": dict(
        why="Zipf 1.2 reads through the elastic CoT client: the front-end policy "
        "and epoch controller do the work, the miss path little",
        warm_ops=300_000, rate=235_000.0,
        make=lambda seed, rec: FrontEnd(
            seed, rec, shards=8, elastic=True, theta=1.2,
            read_fraction=None, network=False,
        ),
    ),
    "read-uniform": dict(
        why="uniform reads over 1M keys never hit the local cache: ring, guard, shard LRU, "
        "storage and backfill run on every read, so a hit-path gain must show no change",
        warm_ops=60_000, rate=60_000.0,
        make=lambda seed, rec: FrontEnd(
            seed, rec, shards=8, elastic=False, theta=None,
            read_fraction=None, network=False,
        ),
    ),
    "mixed-write": dict(
        why="50/50 get/set on Zipf 0.99 (YCSB-A): storage writes, dual-cost hotness "
        "updates and shard invalidation, so a read gain that costs writes shows",
        warm_ops=100_000, rate=74_000.0,
        make=lambda seed, rec: FrontEnd(
            seed, rec, shards=8, elastic=False, theta=0.99,
            read_fraction=0.5, network=False,
        ),
    ),
    "net-sync": dict(
        why="the same client over NetworkPlane, one round trip at a time (YCSB-B): "
        "prices the cross-thread hop, the codec and the server per request",
        warm_ops=5_000, rate=5_300.0,
        one_cpu=True,  # main and loop thread hand every request over: see calib.one_cpu
        make=lambda seed, rec: FrontEnd(
            seed, rec, shards=2, elastic=False, theta=0.99,
            read_fraction=0.95, network=True,
        ),
    ),
    "net-pipelined": dict(
        why="32 pipelined workers against a server process, raw 64-byte values: "
        "bounded by codec, batching and server CPU, not by the hop",
        warm_ops=30_000, rate=27_000.0,
        make=lambda seed, rec: Pipelined(seed, rec),
    ),
}


def build(name: str, seed: int, recorder: Recorder | None = None) -> FrontEnd | Pipelined:
    """Build workload ``name``'s serving system (the first half of set-up)."""
    return WORKLOADS[name]["make"](seed, recorder)
