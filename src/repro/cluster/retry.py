"""Client-side fault tolerance: retries, backoff, and circuit breakers.

The paper's client-driven protocol assumes every shard answers every
lookup; in a cloud deployment shards migrate, restart and flake, so the
front-end client needs the standard resilience triad the elastic-cache
literature (Ditto, DistCache) treats as table stakes:

* **bounded retries with exponential backoff + jitter** — transient
  failures (:class:`~repro.errors.ShardFailure`) are retried up to
  ``max_attempts`` times, with a jittered exponentially-growing delay
  between attempts;
* **a per-shard circuit breaker** — ``failure_threshold`` *consecutive*
  failures trip the breaker ``CLOSED → OPEN``; while open, requests are
  rejected instantly (no doomed round trips). After ``cooldown`` the
  breaker admits probe requests (``HALF_OPEN``); a successful probe
  closes it, a failed probe re-opens it. A shard re-joining the ring is
  therefore re-probed and folded back in automatically;
* **graceful degradation** — when the breaker is open or retries are
  exhausted, :meth:`ClusterGuard.call` raises
  :class:`~repro.errors.ShardUnavailableError` and the caller falls back
  to persistent storage (a *degraded read*) instead of crashing the run.

The live cluster is untimed, so the guard keeps a **logical clock**: one
tick per guarded operation. ``cooldown`` is therefore expressed in
operations, which keeps chaos tests fully deterministic. Backoff delays
are *accounted* (``stats.backoff_total``), never slept, matching the
repo's measure-don't-wait style.
"""

from __future__ import annotations

import enum
import random
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
    "RetryPolicy",
    "RetryStats",
]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for one shard request.

    ``backoff(attempt)`` grows as ``base_backoff * multiplier ** attempt``
    with ±``jitter`` fractional randomization — the classic exponential
    backoff with jitter that prevents synchronized retry storms across
    front ends.
    """

    max_attempts: int = 3
    base_backoff: float = 1e-3
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_backoff < 0:
            raise ConfigurationError("base_backoff must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered."""
        delay = self.base_backoff * self.multiplier**attempt
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker thresholds (cooldown in logical-clock ticks)."""

    failure_threshold: int = 5
    cooldown: float = 64.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")
        if self.half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")


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
        "_half_open_successes",
        "opens",
        "half_opens",
        "closes",
    )

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self._config = config or BreakerConfig()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_successes = 0
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
            self._half_open_successes = 0
            self.half_opens += 1
        return True

    # ------------------------------------------------------------- outcomes

    def record_success(self, now: float) -> None:
        """Feed one successful request outcome."""
        if self._state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self._config.half_open_probes:
                self._state = BreakerState.CLOSED
                self.closes += 1
                self._consecutive_failures = 0
        else:
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

    def reset(self) -> None:
        """Force-close (explicit shard rejoin); transition totals are kept."""
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._half_open_successes = 0


@dataclass
class RetryStats:
    """Aggregate counters over every guarded shard operation."""

    #: guarded operations started
    operations: int = 0
    #: individual request attempts (>= operations)
    attempts: int = 0
    #: attempts that were retries of a failed attempt
    retries: int = 0
    #: operations abandoned (breaker open or retries exhausted)
    failures: int = 0
    #: operations rejected instantly by an open breaker
    open_rejections: int = 0
    #: total backoff delay accounted (seconds; never slept)
    backoff_total: float = 0.0
    #: write-path invalidations that could not reach their shard
    lost_invalidations: int = 0


class ClusterGuard:
    """Per-shard breakers + retry loop guarding every shard request.

    Parameters
    ----------
    servers:
        shard ids to pre-register breakers for; shards discovered later
        (cluster scale-out) are registered on first use.
    retry / breaker:
        policy knobs; defaults are deliberately conservative.
    seed:
        seeds the backoff jitter.
    """

    def __init__(
        self,
        servers: Iterable[str] = (),
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.retry = retry or RetryPolicy()
        self.breaker_config = breaker or BreakerConfig()
        self._breakers: dict[str, CircuitBreaker] = {
            sid: CircuitBreaker(self.breaker_config) for sid in servers
        }
        #: breakers :meth:`forget` dropped, kept for their transition totals
        self._forgotten: list[CircuitBreaker] = []
        self._rng = random.Random(seed)
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
        unregistered (:meth:`breaker` / :meth:`reset` create).
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

    def reset(self, server_id: str) -> None:
        """Force-close the shard's breaker (explicit rejoin notification)."""
        self.breaker(server_id).reset()

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
            stats.attempts += 1
            try:
                result = fn()
            except ShardFailure as exc:
                breaker.record_failure(now)
                attempt += 1
                if (
                    attempt >= self.retry.max_attempts
                    or breaker.peek(now) is _OPEN
                ):
                    stats.failures += 1
                    raise ShardUnavailableError(
                        f"shard {server_id}: gave up after {attempt} "
                        f"attempt(s): {exc}"
                    ) from exc
                delay = self.retry.backoff(attempt - 1, self._rng)
                stats.retries += 1
                stats.backoff_total += delay
                continue
            if breaker._state is _CLOSED:
                breaker._consecutive_failures = 0
            else:
                breaker.record_success(now)
            return result
