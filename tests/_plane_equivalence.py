"""Two-plane equivalence replay.

:func:`decision_equivalence` replays one seeded request stream (a
get/set/delete mix) through the in-process plane and through the
network plane and compares every observable cache decision: per-front-
end hits/misses/accesses and cached-key sets, per-shard
gets/hits/sets/deletes/evictions (admissions and invalidations), and
storage reads/writes. The planes share all decision code
(DESIGN.md §15), so the traces must be *identical* — the contract
``tests/test_net.py`` holds on every tier-1 run.

Nothing here generates load or takes a timing: the socket plane is
priced by the ladder's ``net-sync`` and ``net-pipelined`` workloads
(``benchmarks/ladder``).
"""

from __future__ import annotations

import random
from typing import Any, Hashable

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.storage import PersistentStore
from repro.net.plane import NetworkPlane
from repro.policies.registry import make_policy
from repro.workloads.base import format_key
from repro.workloads.seeding import spawn_seed
from repro.workloads.zipfian import ZipfianGenerator

__all__ = [
    "decision_equivalence",
    "decision_trace",
]

#: The stream's fixed shape: two shards, a skewed key draw, and a mix in
#: which writes and deletes are frequent enough to exercise invalidation.
NUM_SERVERS = 2
THETA = 0.9
WRITE_FRACTION = 0.08
DELETE_FRACTION = 0.02
SEED = 7


def _trace_value(key: Hashable) -> Any:
    """Module-level storage value factory (deterministic, picklable)."""
    return ("value-of", key)


def decision_trace(
    network: bool,
    accesses: int = 10_000,
    num_front_ends: int = 1,
    key_space: int = 2_000,
    cache_lines: int = 128,
) -> dict[str, Any]:
    """Every observable cache decision of one seeded mixed request stream.

    The stream (key order, operation mix) is a pure function of the
    arguments; ``network`` only selects which plane serves it. The
    returned dict captures admissions (cached-key sets), hits/misses,
    per-shard lookups/writes/deletes/evictions (invalidations included)
    and storage traffic — everything the two planes must agree on.
    """
    storage = PersistentStore(value_factory=_trace_value)
    cluster = CacheCluster(
        num_servers=NUM_SERVERS,
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
            ZipfianGenerator(key_space, theta=THETA, seed=spawn_seed(SEED, i))
            for i in range(num_front_ends)
        ]
        op_rng = random.Random(SEED * 1_000_003)
        per_client = accesses // num_front_ends
        for step in range(per_client):
            for fe, generator in zip(front_ends, generators):
                key = format_key(generator.next_key())
                draw = op_rng.random()
                if draw < WRITE_FRACTION:
                    fe.set(key, ("w", key, step))
                elif draw < WRITE_FRACTION + DELETE_FRACTION:
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
