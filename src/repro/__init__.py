"""repro — a full reproduction of "Cache on Track (CoT): Decentralized
Elastic Caches for Cloud Environments" (Zakhary, Lim, Agrawal, El Abbadi,
EDBT 2021).

Quickstart
----------
>>> from repro import CoTCache, ZipfianGenerator, MISSING
>>> cache = CoTCache(capacity=8, tracker_capacity=32)
>>> workload = ZipfianGenerator(key_space=10_000, theta=0.99, seed=7)
>>> for key in workload.keys(50_000):
...     if cache.lookup(key) is MISSING:
...         cache.admit(key, f"value-{key}")    # fetched from the back end
>>> cache.stats.hit_rate > 0.2
True

See ``examples/`` for end-to-end scenarios (multi-front-end load
balancing, elastic auto-configuration) and ``repro.experiments`` for the
paper's tables and figures.
"""

from repro.cluster import (
    BackendCacheServer,
    CacheCluster,
    ConsistentHashRing,
    FrontEndClient,
    LoadMonitor,
    PersistentStore,
    load_imbalance,
)
from repro.core import (
    AccessType,
    CoTCache,
    CoTTracker,
    ElasticCoTClient,
    EpochRecord,
    EpochSnapshot,
    ExponentialDecay,
    HalfLifeDecay,
    IndexedMinHeap,
    KeyStats,
    NoDecay,
    ResizeDecision,
    ResizingController,
)
from repro.policies import (
    ARCCache,
    CachePolicy,
    LFUCache,
    LRUCache,
    LRUKCache,
    MISSING,
    NullCache,
    PerfectCache,
    make_policy,
)
from repro.workloads import (
    GaussianGenerator,
    HotspotGenerator,
    OperationMixer,
    OpType,
    Request,
    ScrambledZipfianGenerator,
    SkewedLatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CoTCache",
    "CoTTracker",
    "ElasticCoTClient",
    "EpochRecord",
    "EpochSnapshot",
    "IndexedMinHeap",
    "AccessType",
    "KeyStats",
    "ResizeDecision",
    "ResizingController",
    "NoDecay",
    "HalfLifeDecay",
    "ExponentialDecay",
    # policies
    "MISSING",
    "CachePolicy",
    "LRUCache",
    "LFUCache",
    "ARCCache",
    "LRUKCache",
    "PerfectCache",
    "NullCache",
    "make_policy",
    # workloads
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "HotspotGenerator",
    "SkewedLatestGenerator",
    "GaussianGenerator",
    "OperationMixer",
    "OpType",
    "Request",
    # cluster
    "CacheCluster",
    "FrontEndClient",
    "BackendCacheServer",
    "ConsistentHashRing",
    "LoadMonitor",
    "PersistentStore",
    "load_imbalance",
]
