"""The socket data plane: memcached-protocol shard servers + client.

Two planes serve the same decision logic (DESIGN.md §15):

* the **in-process plane** — the deterministic simulator the experiments
  run on (:mod:`repro.cluster`), where shard calls are object calls;
* the **network plane** (this package) — threaded socket servers
  speaking a memcached-style text protocol (:mod:`repro.net.server`), a
  pipelined asyncio transport for coroutine callers
  (:mod:`repro.net.client`) and a blocking one for synchronous callers
  (:class:`repro.net.plane.ShardProxy`). The package serves and connects;
  load generation and timing are the ladder's (``benchmarks/ladder``).

The :class:`~repro.net.plane.NetworkPlane` facade serves a
:class:`~repro.cluster.cluster.CacheCluster` over localhost sockets, and
the unchanged :class:`~repro.cluster.client.FrontEndClient` makes
byte-identical cache decisions on either plane
(``tests/_plane_equivalence.py`` asserts exactly that).
"""

from repro.net.proto import (
    MAX_KEY_BYTES,
    RequestDecoder,
    ResponseDecoder,
    dump_value,
    load_value,
)

__all__ = [
    "MAX_KEY_BYTES",
    "RequestDecoder",
    "ResponseDecoder",
    "dump_value",
    "load_value",
]
