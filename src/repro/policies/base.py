"""The front-end cache policy interface.

Every replacement policy evaluated in the paper — LRU, LFU, ARC, LRU-2, the
perfect-cache oracle, and CoT itself — implements :class:`CachePolicy`, so
the experiment harnesses (hit-rate sweeps, load-imbalance sweeps, end-to-end
simulations) are policy-agnostic.

The interface mirrors the client-driven protocol of the paper's system model
(Section 2): a front end first consults the local cache (:meth:`lookup`),
on a miss fetches the value from the back end and *offers* it to the policy
(:meth:`admit` — which may decline, as CoT does for cold keys), and on an
update invalidates the local copy (:meth:`invalidate`).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.policies.stats import CacheStats

__all__ = ["MISSING", "CachePolicy"]


class _Missing:
    """Sentinel distinguishing 'not cached' from a cached ``None`` value."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<MISSING>"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


class CachePolicy(abc.ABC):
    """Abstract base class for front-end cache replacement policies.

    Subclasses implement the four primitive hooks ``_lookup``, ``_admit``,
    ``_invalidate`` and ``_resize``; this base class wraps them with uniform
    statistics accounting so hit rates are measured identically across
    policies.
    """

    #: short identifier used by the registry and in experiment tables
    name: str = "base"

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError("cache capacity must be >= 0")
        self._capacity = capacity
        self.stats = CacheStats()
        #: callbacks invoked with each evicted key (the TTL write
        #: policy's stamp table, experiment probes). Invalidations initiated by
        #: the caller are NOT reported — the caller already knows.
        self.eviction_listeners: list[Callable[[Hashable], None]] = []

    def _notify_evicted(self, key: Hashable) -> None:
        """Inform listeners that the policy evicted ``key`` on its own."""
        for listener in self.eviction_listeners:
            listener(key)

    # ------------------------------------------------------------ uniform api

    @property
    def capacity(self) -> int:
        """Maximum number of cached entries (cache-lines)."""
        return self._capacity

    def lookup(self, key: Hashable) -> Any:
        """Look ``key`` up in the local cache.

        Returns the cached value, or :data:`MISSING` on a miss. Hit/miss
        statistics are recorded, and the policy updates its internal
        recency/frequency state for ``key`` (even on a miss, for policies
        that track history beyond the cache, e.g. LRU-2 and CoT).
        """
        value = self._lookup(key)
        if value is MISSING:
            self.stats.record_miss()
        else:
            self.stats.record_hit()
        return value

    def admit(self, key: Hashable, value: Any) -> None:
        """Offer a back-end-fetched value for caching after a miss.

        The policy may insert it (possibly evicting another key) or decline
        — CoT declines keys colder than ``h_min``; classic policies always
        insert when ``capacity > 0``.
        """
        if self._capacity == 0:
            return
        self._admit(key, value)

    def get_or_admit(self, key: Hashable, loader: Callable[[Hashable], Any]) -> Any:
        """Fused read path: lookup, and on a miss load + offer in one call.

        Semantically identical to::

            value = policy.lookup(key)
            if value is MISSING:
                value = loader(key)
                policy.admit(key, value)

        but expressed as a single entry point so policies can fuse the
        two halves — CoT's override resolves the key once against its
        tracker instead of re-probing in ``lookup`` and again in
        ``admit``. ``loader`` is invoked only on a miss (with the key)
        and its result is returned either way.
        """
        value = self.lookup(key)
        if value is MISSING:
            value = loader(key)
            self.admit(key, value)
        return value

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        """Drive a read-only key stream, admitting every missed key.

        Batch API for the hit-rate harnesses: each key is looked up and,
        on a miss, admitted with the key itself as its value (the
        experiments only measure hit/miss decisions, not payloads). The
        per-call attribute resolution is hoisted out of the loop; the
        semantics per key are exactly ``get_or_admit``'s.
        """
        lookup = self.lookup
        admit = self.admit
        for key in keys:
            if lookup(key) is MISSING:
                admit(key, key)

    def invalidate(self, key: Hashable) -> None:
        """Drop any cached copy of ``key`` (update/delete path).

        Policies that keep access history beyond the cache (CoT, LRU-2,
        ARC ghost lists) may retain or update that history.
        """
        if self._invalidate(key):
            self.stats.record_invalidation()

    def record_update(self, key: Hashable) -> None:
        """Record an update (write) access to ``key``.

        The client-driven protocol invalidates the local copy on writes;
        policies with richer access models may also penalize the key —
        CoT's dual-cost hotness (Equation 1) subtracts ``u_w`` so that
        frequently-updated keys stop qualifying for the cache. The default
        implementation just invalidates.
        """
        self.invalidate(key)

    def resize(self, capacity: int) -> None:
        """Change the cache capacity, evicting coldest entries on shrink."""
        if capacity < 0:
            raise ConfigurationError("cache capacity must be >= 0")
        self._resize(capacity)
        self._capacity = capacity

    # ----------------------------------------------------------- inspection

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of currently cached entries."""

    @abc.abstractmethod
    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is currently cached (no statistics side effects)."""

    @abc.abstractmethod
    def cached_keys(self) -> Iterator[Hashable]:
        """Iterate the currently cached keys (arbitrary order)."""

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate ``(key, value)`` pairs for the currently cached entries.

        The default resolves each key through ``_lookup`` (which may touch
        recency state); concrete policies override it with a direct read of
        their value map. Used by the adaptive arbiter's warm handoff, where
        the source policy is about to be retired anyway.
        """
        for key in self.cached_keys():
            value = self._lookup(key)
            if value is not MISSING:
                yield key, value

    def warm_seed(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """Seed the cache from another policy's cached set (warm handoff).

        Each pair is offered through the normal admission hook — policies
        with admission filters (CoT) override this to pre-warm their
        history first so the handoff is not rejected wholesale. Hit/miss
        statistics are untouched; insertions/evictions count as usual.
        """
        if self._capacity == 0:
            return
        for key, value in items:
            self._admit(key, value)

    # ------------------------------------------------------- subclass hooks

    @abc.abstractmethod
    def _lookup(self, key: Hashable) -> Any:
        """Return the cached value or :data:`MISSING`; update policy state."""

    @abc.abstractmethod
    def _admit(self, key: Hashable, value: Any) -> None:
        """Insert-or-decline hook; called only when ``capacity > 0``."""

    @abc.abstractmethod
    def _invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if cached; return True when something was dropped."""

    @abc.abstractmethod
    def _resize(self, capacity: int) -> None:
        """Apply a capacity change (evict as needed)."""

    # -------------------------------------------------------------- helpers

    def __repr__(self) -> str:
        return f"{type(self).__name__}(capacity={self._capacity}, len={len(self)})"
