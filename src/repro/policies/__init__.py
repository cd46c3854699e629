"""Front-end cache replacement policies: the paper's full comparison set.

* :class:`~repro.policies.lru.LRUCache` — recency only, O(1).
* :class:`~repro.policies.lfu.LFUCache` — in-cache frequency, O(log C).
* :class:`~repro.policies.arc.ARCCache` — ARC with ghost lists and
  self-tuning recency/frequency split.
* :class:`~repro.policies.lruk.LRUKCache` — LRU-K with retained history
  (LRU-2 in the paper's experiments).
* :class:`~repro.policies.perfect.PerfectCache` — the TPC oracle.
* :class:`~repro.policies.nullcache.NullCache` — the no-cache baseline.
* :class:`~repro.policies.adaptive.AdaptiveArbiter` — adaptive arbitration
  over the whole set via ghost shadow caches (DESIGN.md §14).
* CoT itself lives in :class:`repro.core.cache.CoTCache` and implements the
  same :class:`~repro.policies.base.CachePolicy` interface.
"""

from repro.policies.adaptive import AdaptiveArbiter, ArbiterEpoch
from repro.policies.arc import ARCCache
from repro.policies.base import MISSING, CachePolicy
from repro.policies.lfu import LFUCache
from repro.policies.lru import LRUCache
from repro.policies.lruk import LRUKCache
from repro.policies.nullcache import NullCache
from repro.policies.perfect import PerfectCache
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.stats import CacheStats

__all__ = [
    "MISSING",
    "AdaptiveArbiter",
    "ArbiterEpoch",
    "CachePolicy",
    "CacheStats",
    "LRUCache",
    "LFUCache",
    "ARCCache",
    "LRUKCache",
    "PerfectCache",
    "NullCache",
    "POLICY_NAMES",
    "make_policy",
]
