"""Name-based construction of cache policies for the experiment harnesses.

Experiment configs refer to policies by the short names used in the paper's
plots (``lru``, ``lfu``, ``arc``, ``lru2``, ``cot``, ``none``); the registry
turns a name plus sizing parameters into a ready policy instance, applying
the paper's pairing rule that LRU-2's history size equals CoT's tracker
size. Everything else is each policy's own default: CoT's hotness model,
LRU-K at the paper's K = 2, the arbiter's tuning.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.cache import CoTCache
from repro.errors import ConfigurationError
from repro.policies.arc import ARCCache
from repro.policies.base import CachePolicy
from repro.policies.lfu import LFUCache
from repro.policies.lru import LRUCache
from repro.policies.lruk import LRUKCache
from repro.policies.nullcache import NullCache
from repro.policies.perfect import PerfectCache

__all__ = ["POLICY_NAMES", "make_policy"]


def make_policy(
    name: str,
    capacity: int,
    *,
    tracker_capacity: int | None = None,
    hot_keys: Iterable[Hashable] | None = None,
) -> CachePolicy:
    """Construct the policy ``name`` with ``capacity`` cache-lines.

    Parameters
    ----------
    tracker_capacity:
        CoT's ``K`` / LRU-2's history size. The paper always configures
        LRU-2's history equal to CoT's tracker, so one knob drives both.
    hot_keys:
        required for ``perfect``: the true hottest keys, descending.
    """
    lowered = name.lower()
    if lowered == "lru":
        return LRUCache(capacity)
    if lowered == "lfu":
        return LFUCache(capacity)
    if lowered == "arc":
        return ARCCache(capacity)
    if lowered in ("lru2", "lruk", "lru-2", "lru-k"):
        history = tracker_capacity if tracker_capacity is not None else 2 * capacity
        return LRUKCache(capacity, history_capacity=history)
    if lowered == "cot":
        return CoTCache(capacity, tracker_capacity=tracker_capacity)
    if lowered == "adaptive":
        from repro.policies.adaptive import AdaptiveArbiter

        return AdaptiveArbiter(capacity, tracker_capacity=tracker_capacity)
    if lowered in ("none", "nocache", "null"):
        return NullCache()
    if lowered in ("perfect", "tpc"):
        if hot_keys is None:
            raise ConfigurationError("perfect cache requires hot_keys")
        return PerfectCache(capacity, hot_keys)
    raise ConfigurationError(f"unknown policy name: {name!r}")


#: The policy names of the paper's comparison set, in plot order.
POLICY_NAMES = ("lru", "lfu", "arc", "lru2", "cot")
