"""``ClusterGuard.call``'s inlined fast path against the helper-only body.

The live guard tests the breaker's state itself and calls
``CircuitBreaker.allow`` / ``record_success`` only off the fast path;
``tests/_reference_guard.py`` keeps the parent commit's body, where every
call goes through them. Both are driven with the same seeded schedules of
successes, retried and exhausted ``ShardFailure`` runs and the odd
programming error, over three shards (one of them unregistered at
construction) and four breaker configurations, and must agree after
*every* call — on what the call returned or raised, on all of
``RetryStats``, on the logical clock and on each breaker's state,
failure run and transition counters.
"""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from repro.cluster.retry import BreakerConfig, ClusterGuard
from repro.errors import ShardFailure
from tests._reference_guard import ReferenceGuard

SHARDS = ("cache-0", "cache-1", "cache-2")
CALLS = 300
SEEDS_PER_CONFIG = 25
CONFIGS = [
    BreakerConfig(failure_threshold=threshold, cooldown=cooldown)
    for threshold, cooldown in itertools.product((1, 3), (0.0, 5.0))
]


def scripted(failures: int, value: int):
    """A shard request that fails ``failures`` times, then returns ``value``
    (``failures < 0``: a bug in the request itself, not a shard fault)."""
    left = [failures]

    def fn() -> int:
        if left[0] < 0:
            raise KeyError("not a shard failure")
        if left[0]:
            left[0] -= 1
            raise ShardFailure("scripted")
        return value

    return fn


def outcome(guard: ClusterGuard, shard: str, failures: int, value: int):
    try:
        return guard.call(shard, scripted(failures, value))
    except Exception as exc:  # the *type* raised is part of the contract
        return type(exc)


def snapshot(guard: ClusterGuard) -> tuple:
    stats = guard.stats
    return (
        guard.now, stats.operations, stats.retries, stats.failures,
        stats.open_rejections, stats.lost_invalidations,
        [
            (sid, b.state, b.consecutive_failures, b.opens, b.half_opens, b.closes)
            for sid, b in sorted(guard._breakers.items())
        ],
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: (
    f"threshold{c.failure_threshold}-cooldown{c.cooldown:g}"
))
def test_fast_path_matches_reference_after_every_call(config):
    seen = collections.Counter()
    for seed in range(SEEDS_PER_CONFIG):
        rng = random.Random(seed)
        max_attempts = rng.choice((1, 3))
        live, reference = (
            cls(SHARDS[:2], max_attempts=max_attempts, breaker=config)
            for cls in (ClusterGuard, ReferenceGuard)
        )
        down = dict.fromkeys(SHARDS, False)
        for step in range(CALLS):
            shard = SHARDS[rng.randrange(3)]
            if rng.random() < 0.08:
                down[shard] = not down[shard]
            if down[shard]:
                failures = 3  # every attempt fails
            else:
                failures = rng.choice((0, 0, 0, 0, 0, 0, 1, 2, -1))
            got = outcome(live, shard, failures, step)
            want = outcome(reference, shard, failures, step)
            assert got == want, (seed, step)
            assert snapshot(live) == snapshot(reference), (seed, step)
        for breaker in reference.breakers():
            seen.update(
                opens=breaker.opens, half_opens=breaker.half_opens, closes=breaker.closes
            )
    # the schedules must have left the fast path, or they proved nothing
    assert seen["opens"] and seen["half_opens"] and seen["closes"], seen
