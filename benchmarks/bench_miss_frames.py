"""Python frames per operation through the front-end client, by function.

A frame more per miss costs 2-4% of ``read-uniform`` (ROADMAP item 5b), so
before a PR cuts or adds one it should be able to name the frame's owner.
This counts ``sys.setprofile`` ``call`` events whose code lives under
``src/repro`` while a client serves a stream, and prints them per
operation by ``(file, function)`` for the three in-process rungs of the
ladder, each built from public constructors the way the ladder builds it:

* ``uniform-miss`` — gets, uniform over 1M keys (``read-uniform``);
* ``zipf-0.99-mixed`` — 50/50 get/set, Zipf 0.99 (``mixed-write``);
* ``zipf-1.2-read`` — gets, Zipf 1.2, elastic client (``read-skewed``).

C calls (``hashlib.md5``, ``heapreplace``, ``dict.get``) are not frames
and are not counted; a profiled run is several times slower than a plain
one, so this says *where calls are*, the ladder says what they cost.
``tests/test_miss_path_frames.py`` holds the uniform read to a budget::

    PYTHONPATH=src python benchmarks/bench_miss_frames.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable

import repro
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.retry import ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.core.cache import CoTCache
from repro.core.elastic import ElasticCoTClient
from repro.workloads.base import format_key
from repro.workloads.mixer import OperationMixer
from repro.workloads.seeding import spawn_seed
from repro.workloads.uniform import UniformGenerator
from repro.workloads.zipfian import ZipfianGenerator

SRC_ROOT = str(Path(repro.__file__).resolve().parent)
KEY_SPACE = 1_000_000


def dataset_value(key: Hashable) -> Any:
    """The pre-loaded record of a never-written key (the store's default
    factory makes the same tuple, but from ``src/repro``: a counted frame
    the ladder's system, which passes its own, does not have)."""
    return ("value-of", key, 0)


def build_cluster() -> tuple[CacheCluster, ClusterGuard]:
    """The ladder's in-process back end: 8 shards over a lazy dataset."""
    cluster = CacheCluster(
        num_servers=8, storage=PersistentStore(value_factory=dataset_value)
    )
    return cluster, ClusterGuard(cluster.server_ids)


def build_client() -> FrontEndClient:
    """``read-uniform`` / ``mixed-write``: a fixed 512-line CoT cache."""
    cluster, guard = build_cluster()
    return FrontEndClient(cluster, CoTCache(512, 2048), guard=guard)


def build_elastic_client() -> ElasticCoTClient:
    """``read-skewed``: the elastic client at the sizes it settles on."""
    cluster, guard = build_cluster()
    return ElasticCoTClient(
        cluster, target_imbalance=1.1, initial_cache=1024,
        initial_tracker=16384, guard=guard,
    )


def read_keys(n: int, theta: float | None = None, seed: int = 1) -> list[str]:
    """``n`` keys to read: uniform over the key space, or Zipf(``theta``)."""
    if theta is None:
        generator = UniformGenerator(KEY_SPACE, seed=seed)
    else:
        generator = ZipfianGenerator(KEY_SPACE, theta=theta, seed=seed)
    return [format_key(k) for k in generator.keys_array(n)]


def mixed_requests(n: int, seed: int = 1) -> list:
    """``n`` YCSB-A requests: 50/50 get/set on Zipf 0.99."""
    mixer = OperationMixer(
        ZipfianGenerator(KEY_SPACE, theta=0.99, seed=seed),
        read_fraction=0.5, seed=spawn_seed(seed, 1),
    )
    return mixer.next_requests(n)


def count_frames(do: Callable[[Any], Any], items: Iterable[Any]) -> Counter:
    """Run ``do(item)`` per item; count the frames entered under ``src/repro``
    as ``(file, qualified function name) -> calls``."""
    counts: Counter = Counter()
    prefix = len(SRC_ROOT) + 1

    def profiler(frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC_ROOT):
                name = getattr(code, "co_qualname", code.co_name)
                counts[code.co_filename[prefix:], name] += 1

    sys.setprofile(profiler)
    try:
        for item in items:
            do(item)
    finally:
        sys.setprofile(None)
    return counts


def render(counts: Counter, ops: int) -> str:
    """The per-function table, most-called first, as frames per operation."""
    lines = [f"{sum(counts.values()) / ops:7.2f}  total frames/op"]
    for (file, name), calls in counts.most_common():
        lines.append(f"{calls / ops:7.2f}  {file}::{name}")
    return "\n".join(lines)


def main() -> None:
    client = build_client()
    mixed = build_client()
    elastic = build_elastic_client()
    streams = [
        ("uniform-miss", client.get, read_keys(80_000), 60_000),
        ("zipf-0.99-mixed", mixed.execute, mixed_requests(120_000), 100_000),
        ("zipf-1.2-read", elastic.get, read_keys(320_000, theta=1.2), 300_000),
    ]
    for name, do, items, warm in streams:
        for item in items[:warm]:
            do(item)
        timed = items[warm:]
        print(f"== {name}: {len(timed)} ops after {warm} warm-up")
        print(render(count_frames(do, timed), len(timed)))
        print()


if __name__ == "__main__":
    main()
