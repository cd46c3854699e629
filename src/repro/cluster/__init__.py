"""The back-end substrate: consistent hashing, cache shards, storage, and
the client-driven front-end protocol (paper Section 2's system model)."""

from repro.cluster.backend import BackendCacheServer, BackendStats
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector, ShardFaultProfile
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.loadmonitor import LoadMonitor, load_imbalance
from repro.cluster.replication import (
    HotKeyRouter,
    ReplicaEntry,
    ReplicationConfig,
    ReplicationStats,
)
from repro.cluster.retry import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ClusterGuard,
    RetryStats,
)
from repro.cluster.storage import PersistentStore, StorageStats

__all__ = [
    "BackendCacheServer",
    "BackendStats",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ClusterGuard",
    "FrontEndClient",
    "CacheCluster",
    "ConsistentHashRing",
    "FaultInjector",
    "HotKeyRouter",
    "LoadMonitor",
    "ReplicaEntry",
    "ReplicationConfig",
    "ReplicationStats",
    "load_imbalance",
    "PersistentStore",
    "RetryStats",
    "ShardFaultProfile",
    "StorageStats",
]
