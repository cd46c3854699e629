"""Client-side fault tolerance: retries and circuit breakers.

The paper's client-driven protocol assumes every shard answers every
lookup; in a cloud deployment shards migrate, restart and flake, so the
front-end client needs the standard resilience triad the elastic-cache
literature (Ditto, DistCache) treats as table stakes:

* **bounded retries** — transient failures
  (:class:`~repro.errors.ShardFailure`) are retried at once, up to
  ``max_attempts`` attempts in all, and each retry is counted;
* **a per-shard circuit breaker** — ``failure_threshold`` *consecutive*
  failures trip the breaker ``CLOSED → OPEN``; while open, requests are
  rejected instantly (no doomed round trips). After ``cooldown`` the
  breaker admits a probe request (``HALF_OPEN``); a successful probe
  closes it, a failed probe re-opens it. A shard re-joining the ring is
  therefore re-probed and folded back in automatically;
* **graceful degradation** — when the breaker is open or retries are
  exhausted, :meth:`ClusterGuard.call` raises
  :class:`~repro.errors.ShardUnavailableError` and the caller falls back
  to persistent storage (a *degraded read*) instead of crashing the run.

The live cluster is untimed, so the guard keeps a **logical clock**: one
tick per guarded operation. ``cooldown`` is therefore expressed in
operations, which keeps chaos tests fully deterministic. Nothing is
slept: the in-process plane has no clock to wait on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from repro.errors import (
    ConfigurationError,
    ShardFailure,
    ShardUnavailableError,
)

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ClusterGuard",
    "RetryStats",
]

T = TypeVar("T")


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker thresholds (cooldown in logical-clock ticks)."""

    failure_threshold: int = 5
    cooldown: float = 64.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")


class BreakerState(enum.Enum):
    """The classic three-state breaker machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


_CLOSED, _OPEN = BreakerState.CLOSED, BreakerState.OPEN


class CircuitBreaker:
    """One shard's breaker: consecutive-failure trip, cooldown re-probe."""

    __slots__ = (
        "_config",
        "_state",
        "_consecutive_failures",
        "_opened_at",
        "opens",
        "half_opens",
        "closes",
    )

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self._config = config or BreakerConfig()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: lifetime transition counters (the instrumentation the chaos
        #: experiment reports)
        self.opens = 0
        self.half_opens = 0
        self.closes = 0

    # ----------------------------------------------------------------- state

    def peek(self, now: float) -> BreakerState:
        """The state at ``now``, *without* performing transitions."""
        if (
            self._state is BreakerState.OPEN
            and now - self._opened_at >= self._config.cooldown
        ):
            return BreakerState.HALF_OPEN
        return self._state

    @property
    def state(self) -> BreakerState:
        """Last materialized state (cooldown expiry applies on next allow)."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Current run of failures while closed."""
        return self._consecutive_failures

    def allow(self, now: float) -> bool:
        """Whether a request may go out now (materializes ``HALF_OPEN``)."""
        if self._state is BreakerState.OPEN:
            if now - self._opened_at < self._config.cooldown:
                return False
            self._state = BreakerState.HALF_OPEN
            self.half_opens += 1
        return True

    # ------------------------------------------------------------- outcomes

    def record_success(self, now: float) -> None:
        """Feed one successful request outcome (in HALF_OPEN: the probe
        succeeded, and the breaker closes)."""
        if self._state is BreakerState.HALF_OPEN:
            self._state = BreakerState.CLOSED
            self.closes += 1
        self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """Feed one failed request outcome."""
        if self._state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN, cooldown restarts.
            self._state = BreakerState.OPEN
            self._opened_at = now
            self._consecutive_failures = 0
            self.opens += 1
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self._config.failure_threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = now
            self.opens += 1


@dataclass
class RetryStats:
    """Aggregate counters over every guarded shard operation."""

    #: guarded operations started
    operations: int = 0
    #: attempts that were retries of a failed attempt
    retries: int = 0
    #: operations abandoned (breaker open or retries exhausted)
    failures: int = 0
    #: operations rejected instantly by an open breaker
    open_rejections: int = 0
    #: write-path invalidations that could not reach their shard
    lost_invalidations: int = 0


class ClusterGuard:
    """Per-shard breakers + retry loop guarding every shard request.

    Parameters
    ----------
    servers:
        shard ids to pre-register breakers for; shards discovered later
        (cluster scale-out) are registered on first use.
    max_attempts:
        attempts per operation, the first included; a failed attempt is
        retried at once until they run out.
    breaker:
        per-shard breaker thresholds; defaults are deliberately conservative.
    """

    def __init__(
        self,
        servers: Iterable[str] = (),
        max_attempts: int = 3,
        breaker: BreakerConfig | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.breaker_config = breaker or BreakerConfig()
        self._breakers: dict[str, CircuitBreaker] = {
            sid: CircuitBreaker(self.breaker_config) for sid in servers
        }
        #: breakers :meth:`forget` dropped, kept for their transition totals
        self._forgotten: list[CircuitBreaker] = []
        self._clock = 0.0
        self.stats = RetryStats()

    # ----------------------------------------------------------- inspection

    @property
    def now(self) -> float:
        """The guard's logical clock (one tick per guarded operation)."""
        return self._clock

    def breaker(self, server_id: str) -> CircuitBreaker:
        """The shard's breaker, created on first reference."""
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = self._breakers[server_id] = CircuitBreaker(
                self.breaker_config
            )
        return breaker

    def state(self, server_id: str) -> BreakerState:
        """The shard's breaker state at the current logical time.

        A read: an id with no breaker on record is ``CLOSED`` and stays
        unregistered (:meth:`breaker` and :meth:`call` create).
        """
        breaker = self._breakers.get(server_id)
        return _CLOSED if breaker is None else breaker.peek(self._clock)

    def tracked_servers(self) -> frozenset[str]:
        """Ids with a breaker on record (invariant-check hook).

        After :meth:`forget` runs for removed shards this stays a subset
        of live membership — an OPEN breaker must not outlive its shard
        and trip against an unrelated future one.
        """
        return frozenset(self._breakers)

    def unavailable_servers(self) -> frozenset[str]:
        """Shards whose breaker is not closed right now.

        The elastic controller uses this to keep a dead shard's partial
        epoch counts out of its ``I_c`` computation (churn safety).
        """
        return frozenset(
            sid
            for sid, breaker in self._breakers.items()
            if breaker.peek(self._clock) is not BreakerState.CLOSED
        )

    def breakers(self) -> list[CircuitBreaker]:
        """Every breaker the guard has held, forgotten ones included, so the
        ``opens`` / ``closes`` totals telemetry sums never fall."""
        return [*self._breakers.values(), *self._forgotten]

    # ------------------------------------------------------------- topology

    def forget(self, server_id: str) -> None:
        """Drop the breaker of a shard that left the ring for good (or
        revived cold); its transition totals stay in :meth:`breakers`."""
        breaker = self._breakers.pop(server_id, None)
        if breaker is not None:
            self._forgotten.append(breaker)

    # ------------------------------------------------------------------ call

    def call(self, server_id: str, fn: Callable[[], T]) -> T:
        """Run one shard request under retry + breaker protection.

        Returns ``fn()``'s result; raises
        :class:`~repro.errors.ShardUnavailableError` when the breaker is
        open or retries are exhausted. Only
        :class:`~repro.errors.ShardFailure` is treated as retryable —
        anything else is a programming error and propagates untouched.
        Fast path: a CLOSED breaker whose first attempt succeeds runs in
        this frame; ``allow`` / ``record_success`` own the transitions and
        are called only off it (OPEN, HALF_OPEN).
        """
        self._clock = now = self._clock + 1.0
        stats = self.stats
        stats.operations += 1
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = self._breakers[server_id] = CircuitBreaker(
                self.breaker_config
            )
        if breaker._state is _OPEN and not breaker.allow(now):
            stats.open_rejections += 1
            stats.failures += 1
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
                if attempt >= self.max_attempts or breaker.peek(now) is _OPEN:
                    stats.failures += 1
                    raise ShardUnavailableError(
                        f"shard {server_id}: gave up after {attempt} "
                        f"attempt(s): {exc}"
                    ) from exc
                stats.retries += 1
                continue
            if breaker._state is _CLOSED:
                breaker._consecutive_failures = 0
            else:
                breaker.record_success(now)
            return result
