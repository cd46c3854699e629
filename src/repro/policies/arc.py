"""Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

Full ARC as specified in the paper's Figure 4 ("ARC(c)") pseudocode:
two real lists ``T1`` (recency) and ``T2`` (frequency), two ghost lists
``B1``/``B2`` remembering recently evicted keys, and the adaptation target
``p`` that continuously rebalances how many of the ``c`` cache-lines favour
recency vs frequency.

The CoT paper uses ARC as its strongest auto-tuning baseline: ARC tracks
keys beyond the cache (ghost lists of combined size ``c``) but still "pays
the cost of caching every new cold key in the recency list", which is what
the Figure 4 / Table 2 experiments expose under highly skewed workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterable, Iterator

from repro.policies.base import MISSING, CachePolicy

__all__ = ["ARCCache"]


class ARCCache(CachePolicy):
    """ARC(c): self-tuning blend of recency and frequency.

    ``lookup`` serves Case I of the REQUEST routine (hits in ``T1 ∪ T2``);
    ``admit`` — called by the front end once the missed value has been
    fetched — serves Cases II-IV (ghost hits and brand-new keys).
    """

    name = "arc"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._t1: OrderedDict[Hashable, Any] = OrderedDict()  # recent, once
        self._t2: OrderedDict[Hashable, Any] = OrderedDict()  # frequent
        self._b1: OrderedDict[Hashable, None] = OrderedDict()  # ghosts of t1
        self._b2: OrderedDict[Hashable, None] = OrderedDict()  # ghosts of t2
        self._p = 0.0  # adaptation target for |T1|

    # ----------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._t1 or key in self._t2

    def cached_keys(self) -> Iterator[Hashable]:
        yield from list(self._t1)
        yield from list(self._t2)

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        yield from list(self._t1.items())
        yield from list(self._t2.items())

    @property
    def p(self) -> float:
        """Current adaptation target for the size of ``T1``."""
        return self._p

    @property
    def ghost_keys(self) -> tuple[list[Hashable], list[Hashable]]:
        """Snapshot of (B1, B2) ghost keys, LRU→MRU order (test hook)."""
        return list(self._b1), list(self._b2)

    # ------------------------------------------------------------ policy ops

    def _lookup(self, key: Hashable) -> Any:
        # Case I: hit in T1 or T2 -> move to MRU of T2.
        if key in self._t1:
            value = self._t1.pop(key)
            self._t2[key] = value
            return value
        if key in self._t2:
            self._t2.move_to_end(key)
            return self._t2[key]
        return MISSING

    def _admit(self, key: Hashable, value: Any) -> None:
        if key in self._t1 or key in self._t2:
            # Value refresh for an already-cached key (e.g. re-fetch after
            # a race); treat as a hit-move to T2.
            self._t1.pop(key, None)
            self._t2.pop(key, None)
            self._t2[key] = value
            return
        c = self._capacity
        if key in self._b1:
            # Case II: ghost hit in B1 -> grow recency target.
            delta = max(len(self._b2) / len(self._b1), 1.0)
            self._p = min(float(c), self._p + delta)
            self._replace(in_b2=False)
            del self._b1[key]
            self._t2[key] = value
            self.stats.record_insertion()
            return
        if key in self._b2:
            # Case III: ghost hit in B2 -> grow frequency target.
            delta = max(len(self._b1) / len(self._b2), 1.0)
            self._p = max(0.0, self._p - delta)
            self._replace(in_b2=True)
            del self._b2[key]
            self._t2[key] = value
            self.stats.record_insertion()
            return
        # Case IV: completely new key.
        l1 = len(self._t1) + len(self._b1)
        if l1 == c:
            if len(self._t1) < c:
                self._b1.popitem(last=False)
                self._replace(in_b2=False)
            else:
                # B1 is empty and T1 is full: evict LRU of T1 outright.
                victim, _value = self._t1.popitem(last=False)
                self.stats.record_eviction()
                self._notify_evicted(victim)
        else:
            total = l1 + len(self._t2) + len(self._b2)
            if total >= c:
                if total == 2 * c:
                    self._b2.popitem(last=False)
                self._replace(in_b2=False)
        self._t1[key] = value
        self.stats.record_insertion()

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        """Batched read-only stream: lookup + admit-on-miss, loop-inlined.

        Case I (hits) is inlined; misses fall through to ``_admit``
        (Cases II-IV), which records its own insertion/eviction stats.
        Per-key semantics are exactly the base implementation's.

        Twin kept on a number: 1.23-1.25x min / 1.26x median against the
        better plain loop (``benchmarks/run_stream_twins.py``; ROADMAP
        item 3b's bar is 1.10x).
        """
        t1 = self._t1
        t2 = self._t2
        move = t2.move_to_end
        cstat = self.stats
        capacity = self._capacity
        admit = self._admit
        for key in keys:
            if key in t1:
                t2[key] = t1.pop(key)
                cstat.hits += 1
                cstat.epoch_hits += 1
                continue
            if key in t2:
                move(key)
                cstat.hits += 1
                cstat.epoch_hits += 1
                continue
            cstat.misses += 1
            cstat.epoch_misses += 1
            if capacity:
                admit(key, key)

    def _replace(self, in_b2: bool) -> None:
        """The REPLACE(x, p) subroutine: evict from T1 or T2 into a ghost.

        The ``|T1| == p`` comparison is exact on the real-valued ``p``, as
        in Figure 4 — it only fires when ``p`` is integral.  Truncating
        (``int(p)``) fires on any fractional ``p`` with ``⌊p⌋ == |T1|`` and
        evicts from T1 where the paper evicts from T2 (caught by the
        fidelity property test in tests/test_arc_fidelity.py).
        """
        t1_len = len(self._t1)
        if t1_len >= 1 and ((in_b2 and t1_len == self._p) or t1_len > self._p):
            victim, _value = self._t1.popitem(last=False)
            self._b1[victim] = None
        elif self._t2:
            victim, _value = self._t2.popitem(last=False)
            self._b2[victim] = None
        elif self._t1:  # pragma: no cover - defensive: T2 empty, T1 must give
            victim, _value = self._t1.popitem(last=False)
            self._b1[victim] = None
        else:
            return
        self.stats.record_eviction()
        self._notify_evicted(victim)

    def _invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` everywhere — its history is stale after an update."""
        dropped = False
        if self._t1.pop(key, MISSING) is not MISSING:
            dropped = True
        elif self._t2.pop(key, MISSING) is not MISSING:
            dropped = True
        self._b1.pop(key, None)
        self._b2.pop(key, None)
        return dropped

    def _resize(self, capacity: int) -> None:
        self._p = min(self._p, float(capacity))
        while len(self._t1) + len(self._t2) > capacity:
            if len(self._t1) > self._p or not self._t2:
                victim, _v = self._t1.popitem(last=False)
                self._b1[victim] = None
            else:
                victim, _v = self._t2.popitem(last=False)
                self._b2[victim] = None
            self.stats.record_eviction()
            self._notify_evicted(victim)
        while len(self._t1) + len(self._b1) > capacity and self._b1:
            self._b1.popitem(last=False)
        total = len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
        while total > 2 * capacity and (self._b1 or self._b2):
            if self._b2:
                self._b2.popitem(last=False)
            else:
                self._b1.popitem(last=False)
            total -= 1
