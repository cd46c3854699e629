"""``ClusterGuard.call`` as it stood before its fast path was inlined (PR 22).

A reference implementation ``test_guard_fastpath.py``
drives next to the live guard; nothing ships from here. ``call`` is
copied verbatim from the parent commit's ``src/repro/cluster/retry.py``:
every breaker transition goes through ``CircuitBreaker.allow`` /
``record_success`` / ``record_failure``, which the live guard only calls
off its fast path. Everything else is the live class. The guard's
``sleep`` hook, which no caller ever set, has since been deleted, and so
have its backoff delays (never slept, never read) and its ``attempts``
count (never read), so their lines are gone from this copy too; the
breaker transitions are as they were.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.cluster.retry import BreakerState, CircuitBreaker, ClusterGuard
from repro.errors import ShardFailure, ShardUnavailableError

T = TypeVar("T")


class ReferenceGuard(ClusterGuard):
    """The live guard with the parent commit's ``call`` body."""

    def call(self, server_id: str, fn: Callable[[], T]) -> T:
        self._clock += 1.0
        now = self._clock
        self.stats.operations += 1
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = self._breakers[server_id] = CircuitBreaker(
                self.breaker_config
            )
        if not breaker.allow(now):
            self.stats.open_rejections += 1
            self.stats.failures += 1
            raise ShardUnavailableError(
                f"shard {server_id}: circuit open"
            )
        attempt = 0
        while True:
            try:
                result = fn()
            except ShardFailure as exc:
                breaker.record_failure(now)
                attempt += 1
                if (
                    attempt >= self.max_attempts
                    or breaker.peek(now) is BreakerState.OPEN
                ):
                    self.stats.failures += 1
                    raise ShardUnavailableError(
                        f"shard {server_id}: gave up after {attempt} "
                        f"attempt(s): {exc}"
                    ) from exc
                self.stats.retries += 1
                continue
            breaker.record_success(now)
            return result
