"""Hit/miss accounting shared by every front-end cache policy."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CacheStats"]


@dataclass(slots=True)
class CacheStats:
    """Lifetime and per-epoch counters for one front-end cache.

    ``hits``/``misses`` accumulate over the cache's lifetime;
    ``epoch_hits``/``epoch_misses`` are reset by :meth:`reset_epoch` and feed
    CoT's per-epoch quality signals (``alpha_c``). Slotted: two counter
    writes land here on every single access.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    epoch_hits: int = 0
    epoch_misses: int = 0
    _ignored: int = field(default=0, repr=False)

    def record_hit(self) -> None:
        """Count one lookup served from the local cache."""
        self.hits += 1
        self.epoch_hits += 1

    def record_miss(self) -> None:
        """Count one lookup that had to go to the back end."""
        self.misses += 1
        self.epoch_misses += 1

    def record_insertion(self) -> None:
        """Count one key admitted into the cache."""
        self.insertions += 1

    def record_eviction(self) -> None:
        """Count one key evicted to make room."""
        self.evictions += 1

    def record_invalidation(self) -> None:
        """Count one key dropped because of an update/delete."""
        self.invalidations += 1

    @property
    def accesses(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate in [0, 1] (0.0 before any access)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def epoch_accesses(self) -> int:
        """Lookups observed since the last epoch reset."""
        return self.epoch_hits + self.epoch_misses

    def reset_epoch(self) -> None:
        """Zero the per-epoch counters (lifetime counters are kept)."""
        self.epoch_hits = 0
        self.epoch_misses = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = 0
        self.insertions = self.evictions = self.invalidations = 0
        self.reset_epoch()
