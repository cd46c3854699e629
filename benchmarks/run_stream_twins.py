"""What each policy's hand-inlined ``run_stream`` buys over the plain loops.

ROADMAP item 3b keeps a ``run_stream`` twin only where it buys >= 10%.
For every policy this times one 200k-key Zipf-0.99 stream (512 lines,
the Figure 5/6 cache size) three ways, interleaved so host drift hits
all three alike:

* ``stream`` — ``policy.run_stream(keys)``, the twin under test;
* ``base``   — ``CachePolicy.run_stream`` (hoisted ``lookup`` / ``admit``);
* ``fused``  — ``for key in keys: policy.get_or_admit(key, identity)``.

and prints ns/key (min and median over the repetitions) plus the twin's
speed-up against the *better* plain loop. The numbers quoted in the
policies' ``run_stream`` docstrings come from here::

    PYTHONPATH=src python benchmarks/run_stream_twins.py
"""

from __future__ import annotations

import statistics
import time

from repro.policies.base import CachePolicy
from repro.policies.registry import make_policy
from repro.workloads.zipfian import ZipfianGenerator

POLICIES = ("cot", "lru", "lfu", "lru2", "arc")
KEYS = 200_000
REPETITIONS = 9
CACHE_LINES = 512


def _identity(key):
    return key


def _fused(policy: CachePolicy, keys: list) -> None:
    get_or_admit = policy.get_or_admit
    for key in keys:
        get_or_admit(key, _identity)


DRIVES = {
    "stream": lambda policy, keys: policy.run_stream(keys),
    "base": lambda policy, keys: CachePolicy.run_stream(policy, keys),
    "fused": _fused,
}


def measure(name: str, keys: list) -> dict[str, list[float]]:
    """ns/key per drive, one sample per repetition, drives interleaved."""
    samples: dict[str, list[float]] = {drive: [] for drive in DRIVES}
    hits: set[int] = set()
    for _ in range(REPETITIONS):
        for drive, run in DRIVES.items():
            policy = make_policy(
                name, CACHE_LINES, tracker_capacity=4 * CACHE_LINES
            )
            started = time.perf_counter()
            run(policy, keys)
            samples[drive].append((time.perf_counter() - started) / len(keys) * 1e9)
            hits.add(policy.stats.hits)
    assert len(hits) == 1, f"{name}: the three drives disagree on hits: {hits}"
    return samples


def main() -> None:
    keys = ZipfianGenerator(100_000, theta=0.99, seed=1).keys_array(KEYS)
    print(
        f"{KEYS} Zipf-0.99 keys, {CACHE_LINES} lines, "
        f"{REPETITIONS} interleaved repetitions; ns/key"
    )
    print(
        f"{'policy':<6} {'stream min/med':>16} {'base min/med':>16} "
        f"{'fused min/med':>16}  speed-up min / med"
    )
    for name in POLICIES:
        samples = measure(name, keys)
        low = {drive: min(values) for drive, values in samples.items()}
        mid = {drive: statistics.median(values) for drive, values in samples.items()}
        cells = "".join(f" {low[d]:>8.0f}/{mid[d]:<7.0f}" for d in DRIVES)
        print(
            f"{name:<6}{cells}  "
            f"{min(low['base'], low['fused']) / low['stream']:.2f}x / "
            f"{min(mid['base'], mid['fused']) / mid['stream']:.2f}x"
        )


if __name__ == "__main__":
    main()
