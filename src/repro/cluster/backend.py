"""A memcached-like back-end caching shard.

The paper deploys 8 memcached instances (4 GB each) behind consistent
hashing. :class:`BackendCacheServer` reproduces the relevant behaviour:
a byte-budgeted LRU store with ``get``/``set``/``delete`` and per-server
counters, so the experiment harness can read off exactly the per-server
lookup loads that define back-end load-imbalance.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterator

from repro.errors import ConfigurationError, ShardFailure
from repro.policies.base import MISSING

if TYPE_CHECKING:  # cycle-free: faults only needs error classes
    from repro.cluster.faults import FaultInjector

__all__ = ["BackendCacheServer", "BackendStats"]


@dataclass(slots=True)
class BackendStats:
    """Operation counters for one back-end shard.

    ``gets`` counts lookup arrivals (the load-imbalance denominator);
    ``epoch_gets`` is a resettable window used by per-epoch monitoring.
    Slotted: every routed back-end lookup writes two of these counters.
    """

    gets: int = 0
    get_hits: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    epoch_gets: int = field(default=0)
    #: requests that failed because of an injected fault (down/slow/flaky)
    fault_errors: int = 0

    @property
    def get_hit_rate(self) -> float:
        """Fraction of gets served from this shard's memory."""
        return self.get_hits / self.gets if self.gets else 0.0

    def reset_epoch(self) -> None:
        """Zero the per-epoch window."""
        self.epoch_gets = 0


class BackendCacheServer:
    """Byte-budgeted LRU key/value shard (one "memcached instance").

    Parameters
    ----------
    server_id:
        identity on the hash ring.
    capacity_bytes:
        memory budget; values beyond it evict LRU entries. The paper's
        shards hold 4 GB against a 715 GB dataset, i.e. the caching layer
        itself also misses sometimes.
    default_value_size:
        accounting size for values whose size cannot be inferred.
    fault_injector:
        optional :class:`~repro.cluster.faults.FaultInjector`; when set,
        every request first consults it and may raise a
        :class:`~repro.errors.ShardFailure` (down / timed-out / flaky).
    """

    def __init__(
        self,
        server_id: str,
        capacity_bytes: int = 4 * 1024**3,
        default_value_size: int = 750 * 1024,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError("capacity_bytes must be >= 1")
        if default_value_size < 1:
            raise ConfigurationError("default_value_size must be >= 1")
        self.server_id = server_id
        self._capacity_bytes = capacity_bytes
        self._default_value_size = default_value_size
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._bytes_used = 0
        self.stats = BackendStats()
        self.fault_injector = fault_injector

    # ----------------------------------------------------------- inspection

    @property
    def capacity_bytes(self) -> int:
        """Configured memory budget."""
        return self._capacity_bytes

    @property
    def bytes_used(self) -> int:
        """Bytes currently accounted to stored values."""
        return self._bytes_used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Iterate stored keys, LRU to MRU."""
        return iter(list(self._entries))

    # ------------------------------------------------------------- protocol

    def _check_fault(self) -> None:
        """Apply the injected fault, if any (the slow path: ``get`` /
        ``set`` / ``delete`` call here only with an injector attached)."""
        if self.fault_injector is not None:
            try:
                self.fault_injector.check(self.server_id)
            except ShardFailure:
                self.stats.fault_errors += 1
                raise

    def get(self, key: Hashable) -> Any:
        """Serve a lookup; returns the value or ``MISSING``."""
        if self.fault_injector is not None:
            self._check_fault()
        self.stats.gets += 1
        self.stats.epoch_gets += 1
        entry = self._entries.get(key)
        if entry is None:
            return MISSING
        self._entries.move_to_end(key)
        self.stats.get_hits += 1
        return entry[0]

    def get_many(self, keys: list[Hashable]) -> dict[Hashable, Any]:
        """Serve a batched lookup (memcached's getMulti).

        Each key counts as one lookup for load accounting — a multi-get
        of 100 keys is 100 units of work on this shard, matching how
        page-load fan-out drives the load-imbalance problem. The fault
        check happens once per batch (one RPC, one failure). Returns only
        the present keys.
        """
        self._check_fault()
        found: dict[Hashable, Any] = {}
        entries = self._entries
        stats = self.stats
        for key in keys:
            stats.gets += 1
            stats.epoch_gets += 1
            entry = entries.get(key)
            if entry is None:
                continue
            entries.move_to_end(key)
            stats.get_hits += 1
            found[key] = entry[0]
        return found

    def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        """Store a value, evicting LRU entries to fit the byte budget."""
        if self.fault_injector is not None:
            self._check_fault()
        self.stats.sets += 1
        size = self._default_value_size if size is None else size
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes_used -= old[1]
        size = min(size, self._capacity_bytes)
        while self._bytes_used + size > self._capacity_bytes and self._entries:
            _victim, (_value, victim_size) = self._entries.popitem(last=False)
            self._bytes_used -= victim_size
            self.stats.evictions += 1
        self._entries[key] = (value, size)
        self._bytes_used += size

    def delete(self, key: Hashable) -> bool:
        """Invalidate a key; returns whether it was present."""
        if self.fault_injector is not None:
            self._check_fault()
        self.stats.deletes += 1
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes_used -= entry[1]
        return True

    def drop(self, key: Hashable) -> None:
        """Administratively evict ``key`` (topology-change housekeeping).

        Unlike :meth:`delete` this is control-plane work, not a client
        request: no fault is injected (a flaky shard must not be able to
        veto the purge of a copy that is about to become reachable again)
        and no protocol counters move.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes_used -= entry[1]

    def flush(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()
        self._bytes_used = 0
