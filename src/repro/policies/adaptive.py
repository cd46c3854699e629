"""Adaptive policy arbitration over ghost shadow caches (Ditto direction).

No fixed replacement policy survives a non-stationary workload: the CoT
paper's own Algorithm 3 Case 2 (the "Gangnam style" hot-set rotation)
documents one failure mode, and scan floods / diurnal skew shifts supply
others. Ditto (arXiv:2309.10239) shows the practical cure: run *every*
candidate policy as a lightweight shadow simulation fed by a spatial
sample of the access stream (the FastSim idea), score the shadows on
observed hit value, and switch the live policy to the winner.

:class:`AdaptiveArbiter` packages that as a :class:`CachePolicy`, so it
drops anywhere a fixed policy does (policy-stream harnesses, cluster
front ends, the engine's ``PolicySpec`` axis):

* exactly one **live** policy serves traffic at any time; the arbiter
  delegates every public operation to it and keeps cumulative statistics
  across switches;
* one **shadow** per candidate runs at capacity scaled down by the
  sampling rate (SHARDS-style: a ``1/2^s`` spatial sample against a
  ``C/2^s``-line cache estimates the hit rate of a ``C``-line cache) and
  stores the key as its own value — keys and policy metadata only, no
  payloads;
* every ``epoch_length`` accesses the shadows are scored on the
  hit-value ledger of :class:`~repro.core.costaware.CostAwareController`
  (hit rate minus ``LINE_COST`` rent per line per access — identical
  rent across candidates, so the ledger ranks by hit rate), and the live
  policy switches to a challenger whose shadow clears an additive
  ``switch_margin`` in a decided epoch. Switching compares shadow to
  shadow — the scaled shadows share a sampling bias that cancels between
  candidates — while the regret counter is charged against the hit value
  the live policy *actually served*;
* a switch performs a **warm handoff**: the incoming policy is seeded
  from the outgoing policy's cached set via
  :meth:`~repro.policies.base.CachePolicy.warm_seed`, and any key the
  incoming policy declines is reported through the arbiter's eviction
  listeners, so state keyed on cached copies (TTL stamps) stays exact.

Spatial sampling uses deterministic hashes (multiplicative hashing for
int keys, CRC-32 for strings) — never Python's per-process-randomized
``hash`` — so runs are reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.policies.base import CachePolicy
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.stats import CacheStats

__all__ = ["LINE_COST", "AdaptiveArbiter", "ArbiterEpoch", "sample_hash"]

#: Rent per cache line per access in the hit-value ledger, in units of one
#: hit (the cost-aware controller's default line cost, DESIGN.md §14).
LINE_COST = 0.05

#: Knuth's multiplicative constant (2^32 / phi), for integer key hashing.
_KNUTH = 2654435761
_MASK32 = 0xFFFFFFFF

#: Sampled-key memo bound: the sampling verdict per key is immutable, so
#: the arbiter caches it in a plain dict — on a Zipf-0.99 stream a probe
#: costs ~50 ns a key where the hash costs ~160–370 ns (int or str keys,
#: 2-vCPU x86 guest). The memo is dropped wholesale when it would outgrow
#: this many keys: scan-style workloads touch unbounded key ranges exactly
#: once and must not leak memory through it.
_SAMPLE_MEMO_LIMIT = 1 << 20


def _ledger(hits: int, accesses: int, lines: int) -> float:
    """Epoch score: hit rate minus ``LINE_COST`` rent per line per access."""
    if accesses == 0:
        return 0.0
    return hits / accesses - LINE_COST * lines / accesses


def sample_hash(key: Hashable) -> int:
    """Deterministic 16-bit sampling hash of a cache key.

    Stable across processes and runs (unlike ``hash(str)``): integers go
    through multiplicative hashing (upper halfword, where the mixing
    lives), strings through CRC-32. Anything else hashes its ``repr``.
    """
    if type(key) is int:
        return ((key * _KNUTH) & _MASK32) >> 16
    if type(key) is str:
        return zlib.crc32(key.encode("utf-8")) & 0xFFFF
    return zlib.crc32(repr(key).encode("utf-8")) & 0xFFFF


@dataclass(frozen=True)
class ArbiterEpoch:
    """One arbitration epoch's record (the arbiter's decision trail)."""

    index: int
    live: str
    scores: dict[str, float] = field(default_factory=dict)
    samples: int = 0
    switched_to: str | None = None
    #: hit value the live policy actually served this epoch (the score
    #: challengers had to beat)
    live_score: float = 0.0


class AdaptiveArbiter(CachePolicy):
    """Serve through one live policy; score every candidate in shadow.

    Parameters
    ----------
    capacity:
        cache-lines of the live policy (shadows are scaled down by the
        sampling rate).
    candidates:
        registry names of the candidate policies (default: the paper's
        comparison set LRU / LFU / ARC / LRU-2 / CoT).
    tracker_capacity:
        CoT tracker / LRU-2 history size for candidates that take one
        (default ``4 * capacity``).
    epoch_length:
        accesses per arbitration epoch.
    sample_shift:
        spatial sampling rate as a power of two: keys whose
        :func:`sample_hash` has ``sample_shift`` trailing zero bits feed
        the shadows (rate ``1/2^sample_shift``); shadow capacity is
        ``capacity >> sample_shift``. ``0`` disables sampling (full-size
        shadows — accurate and expensive). An access only appends its key
        to a tap; sampling and the shadow replays happen when the tap is
        drained (at each epoch close, or when shadow state is read), so
        the rate prices the drain, not the access. The default (1/64)
        is what the perf gate holds to its 15% hot-path budget (the
        ``arbiter_overhead`` row of ``run_perf_gate.py``); skew amplifies
        sampled *volume* well past the key-space rate, so halving the
        rate roughly halves the replay cost.
    switch_margin:
        hysteresis: a challenger's shadow must beat the live candidate's
        shadow score by ``switch_margin`` (additive, in hits per access)
        for the arbiter to switch to it. Scores are :func:`_ledger`
        values: ``hit_rate - LINE_COST * lines / accesses``; rent is
        identical across candidates, so it shifts, never reorders, the
        ranking.
    min_samples:
        epochs with fewer sampled accesses than this make no decision
        (scores too noisy to act on).
    initial:
        starting live policy (default: first candidate).
    """

    name = "adaptive"

    def __init__(
        self,
        capacity: int,
        *,
        candidates: Sequence[str] = POLICY_NAMES,
        tracker_capacity: int | None = None,
        epoch_length: int = 2048,
        sample_shift: int = 6,
        switch_margin: float = 0.02,
        min_samples: int = 8,
        initial: str | None = None,
    ) -> None:
        super().__init__(capacity)
        if not candidates:
            raise ConfigurationError("at least one candidate policy is required")
        if len(set(candidates)) != len(candidates):
            raise ConfigurationError("candidate names must be unique")
        if epoch_length < 1:
            raise ConfigurationError("epoch_length must be >= 1")
        if not 0 <= sample_shift <= 16:
            raise ConfigurationError("sample_shift must be in [0, 16]")
        if switch_margin < 0:
            raise ConfigurationError("switch_margin must be >= 0")
        if min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        self._candidates = tuple(candidates)
        self._tracker_capacity = (
            tracker_capacity if tracker_capacity is not None else 4 * capacity
        )
        self._epoch_length = epoch_length
        self._sample_shift = sample_shift
        self._sample_mask = (1 << sample_shift) - 1
        self.switch_margin = switch_margin
        self.min_samples = min_samples

        self._live_name = initial if initial is not None else self._candidates[0]
        if self._live_name not in self._candidates:
            raise ConfigurationError(
                f"initial policy {self._live_name!r} is not a candidate"
            )
        self._live = self._build_full(self._live_name)
        # The live policy shares the arbiter's listener list by identity,
        # so eviction listeners registered on the arbiter hear
        # live-policy evictions even across switches.
        self._live.eviction_listeners = self.eviction_listeners
        self._shadows = {name: self._build_shadow(name) for name in self._candidates}
        #: keys served since the last drain, neither sampled nor replayed
        #: yet; :meth:`_drain` runs before anything reads or mutates
        #: shadow state, so the deferral is unobservable
        self._tap: list[Hashable] = []
        #: accesses left in the epoch before the tap is taken off: the
        #: epoch is full when the tap holds ``_room`` keys
        self._room = epoch_length
        self._epoch_samples = 0
        self._samples = 0
        self.epochs = 0
        self.switches = 0
        self.regret = 0.0
        self._sample_memo: dict[Hashable, bool] = {}
        self._live_hits_mark = 0
        self._live_misses_mark = 0
        self.history: list[ArbiterEpoch] = []

    # --------------------------------------------------------- construction

    def _build_full(self, name: str) -> CachePolicy:
        # A resize can grow the cache past the construction-time tracker;
        # the incoming policy's tracker then grows with it, the rule
        # CoTCache._resize applies to a live CoT.
        capacity = self._capacity
        return make_policy(
            name,
            capacity,
            tracker_capacity=max(self._tracker_capacity, capacity + 1),
        )

    def _shadow_sizes(self, capacity: int) -> tuple[int, int]:
        cache = max(1, capacity >> self._sample_shift)
        tracker = max(cache + 1, self._tracker_capacity >> self._sample_shift)
        return cache, tracker

    def _build_shadow(self, name: str) -> CachePolicy:
        cache, tracker = self._shadow_sizes(self._capacity)
        return make_policy(name, cache, tracker_capacity=tracker)

    # ----------------------------------------------------------- inspection

    @property
    def candidates(self) -> tuple[str, ...]:
        """Candidate policy names, in registry order."""
        return self._candidates

    @property
    def live_name(self) -> str:
        """Name of the policy currently serving traffic."""
        return self._live_name

    @property
    def live_policy(self) -> CachePolicy:
        """The policy instance currently serving traffic (test hook)."""
        return self._live

    @property
    def epoch_length(self) -> int:
        """Accesses per arbitration epoch."""
        return self._epoch_length

    @property
    def sample_rate(self) -> float:
        """Fraction of accesses fed to the shadows."""
        return 1.0 / (1 << self._sample_shift)

    @property
    def samples(self) -> int:
        """Accesses sampled into the shadows so far."""
        self._drain()
        return self._samples

    def shadow_hit_rates(self) -> dict[str, float]:
        """Lifetime shadow hit rate per candidate (telemetry surface)."""
        self._drain()
        return {name: shadow.stats.hit_rate for name, shadow in self._shadows.items()}

    # ------------------------------------------------- stats across switches

    @property
    def stats(self) -> CacheStats:  # type: ignore[override]
        """Cumulative serving statistics: retired live policies + current."""
        live = self._live.stats
        merged = CacheStats(
            hits=self._retired.hits + live.hits,
            misses=self._retired.misses + live.misses,
            insertions=self._retired.insertions + live.insertions,
            evictions=self._retired.evictions + live.evictions,
            invalidations=self._retired.invalidations + live.invalidations,
            epoch_hits=self._retired.epoch_hits + live.epoch_hits,
            epoch_misses=self._retired.epoch_misses + live.epoch_misses,
        )
        return merged

    @stats.setter
    def stats(self, value: CacheStats) -> None:
        # Absorbs the base-class initialisation; the accumulator holds the
        # counters of every retired live policy.
        self._retired = value

    # -------------------------------------------------------- the fast paths

    def _sampled(self, keys: Sequence[Hashable]) -> list[Hashable]:
        """The keys of ``keys`` inside the spatial sample, in order."""
        memo = self._sample_memo
        try:
            # Happy path: every verdict is memoized — one C-level dict
            # probe per key.
            return [key for key in keys if memo[key]]
        except KeyError:
            if len(memo) >= _SAMPLE_MEMO_LIMIT:
                memo.clear()
            mask = self._sample_mask
            for key in keys:
                if key not in memo:
                    memo[key] = (sample_hash(key) & mask) == 0
            return [key for key in keys if memo[key]]

    def _drain(self) -> None:
        """Sample the tapped accesses and replay the sampled keys into
        every shadow (ghost entries); the tap leaves the epoch's room."""
        tap = self._tap
        if not tap:
            return
        sampled = self._sampled(tap)
        self._room -= len(tap)
        tap.clear()
        if sampled:
            self._epoch_samples += len(sampled)
            self._samples += len(sampled)
            for shadow in self._shadows.values():
                shadow.run_stream(sampled)

    # An access is: check the epoch's room, tap the key, delegate. The
    # check and the append are written out in each entry point, not
    # shared through a helper: a frame per access is the cost to avoid.

    def lookup(self, key: Hashable) -> Any:
        if len(self._tap) >= self._room:
            self._close_epoch()
        self._tap.append(key)
        return self._live.lookup(key)

    def admit(self, key: Hashable, value: Any) -> None:
        self._live.admit(key, value)

    def get_or_admit(self, key: Hashable, loader: Callable[[Hashable], Any]) -> Any:
        if len(self._tap) >= self._room:
            self._close_epoch()
        self._tap.append(key)
        return self._live.get_or_admit(key, loader)

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        keys = keys if isinstance(keys, (list, tuple)) else list(keys)
        tap = self._tap  # drained in place, never rebound
        n = len(keys)
        i = 0
        while i < n:
            if len(tap) >= self._room:
                self._close_epoch()
            take = min(n - i, self._room - len(tap))
            segment = keys[i : i + take]
            tap.extend(segment)
            self._live.run_stream(segment)
            i += take

    def invalidate(self, key: Hashable) -> None:
        self._live.invalidate(key)
        if self._sampled((key,)):
            self._drain()
            for shadow in self._shadows.values():
                shadow.invalidate(key)

    def record_update(self, key: Hashable) -> None:
        self._live.record_update(key)
        if self._sampled((key,)):
            self._drain()
            for shadow in self._shadows.values():
                shadow.record_update(key)

    def resize(self, capacity: int) -> None:
        super().resize(capacity)
        self._drain()
        cache, _tracker = self._shadow_sizes(capacity)
        for shadow in self._shadows.values():
            shadow.resize(cache)

    # ------------------------------------------------------------ arbitration

    def _live_score(self) -> float:
        """Hit value the live policy actually served this epoch.

        Used for the regret counter and the epoch record — deliberately
        *not* the live candidate's shadow score, since after a warm
        handoff the live instance can lag its own steady-state
        simulation (the handoff transfers cached keys but not hotness
        or recency history) and regret should reflect reality.
        """
        stats = self._live.stats
        hits = stats.hits - self._live_hits_mark
        misses = stats.misses - self._live_misses_mark
        return _ledger(hits, hits + misses, self._live.capacity)

    def _mark_live(self) -> None:
        self._live_hits_mark = self._live.stats.hits
        self._live_misses_mark = self._live.stats.misses

    def close_epoch(self) -> ArbiterEpoch | None:
        """Force an arbitration decision now (end-of-run flush).

        Returns the epoch record, or ``None`` when no accesses arrived
        since the previous boundary.
        """
        self._drain()
        if self._room == self._epoch_length:
            return None
        return self._close_epoch()

    def _close_epoch(self) -> ArbiterEpoch:
        self._drain()
        accesses = self._epoch_length - self._room
        scores = {
            name: _ledger(s.stats.epoch_hits, s.stats.epoch_accesses, s.capacity)
            for name, s in self._shadows.items()
        }
        live_score = self._live_score()
        samples = self._epoch_samples
        switched_to: str | None = None
        if samples >= self.min_samples:
            best_name = self._live_name
            best_score = scores[self._live_name]
            for name in self._candidates:
                if scores[name] > best_score:
                    best_name, best_score = name, scores[name]
            # Regret is charged against what the live policy actually
            # served; the switch decision compares shadow to shadow,
            # because the scaled-down shadows share a common sampling
            # bias that cancels between candidates but not against the
            # live policy's full-size reality.
            self.regret += max(0.0, best_score - live_score) * accesses
            if (
                best_name != self._live_name
                and best_score - scores[self._live_name] > self.switch_margin
            ):
                self._switch(best_name)
                switched_to = best_name
        record = ArbiterEpoch(
            index=self.epochs,
            live=switched_to or self._live_name,
            scores=scores,
            samples=samples,
            switched_to=switched_to,
            live_score=live_score,
        )
        self.history.append(record)
        self.epochs += 1
        self._room = self._epoch_length
        self._epoch_samples = 0
        self._mark_live()
        for shadow in self._shadows.values():
            shadow.stats.reset_epoch()
        return record

    def _switch(self, name: str) -> None:
        outgoing = self._live
        incoming = self._build_full(name)
        incoming.warm_seed(outgoing.cached_items())
        # Keys the incoming policy declined (or evicted again during the
        # seed) have silently left the front-end cache: report them so
        # eviction listeners see every drop. Listeners are attached only
        # after seeding, so seed-time churn is not double-reported.
        for key in outgoing.cached_keys():
            if key not in incoming:
                self._notify_evicted(key)
        incoming.eviction_listeners = self.eviction_listeners
        self._retired = self.stats  # the outgoing policy's counters retire
        self._live = incoming
        self._live_name = name
        self.switches += 1

    # ----------------------------------------------------------- delegation

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    def cached_keys(self) -> Iterator[Hashable]:
        return self._live.cached_keys()

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        return self._live.cached_items()

    def _lookup(self, key: Hashable) -> Any:
        return self._live._lookup(key)

    def _admit(self, key: Hashable, value: Any) -> None:
        self._live._admit(key, value)

    def _invalidate(self, key: Hashable) -> bool:
        return self._live._invalidate(key)

    def _resize(self, capacity: int) -> None:
        self._live.resize(capacity)

    def __repr__(self) -> str:
        return (
            f"AdaptiveArbiter(live={self._live_name!r}, "
            f"candidates={self._candidates}, capacity={self._capacity}, "
            f"epoch={self._epoch_length}, rate=1/{1 << self._sample_shift})"
        )
