"""Server process of the ``net-pipelined`` workload.

Hosts two :class:`~repro.net.server.ShardServer`\\ s on one event loop
(ephemeral ports) and talks to the load process over its own
stdin/stdout, one JSON document per line:

* on start it prints ``{"ports": {server_id: port}}``;
* each ``stats`` line on stdin is answered with a counters snapshot
  (CPU time, peak RSS, wire and backend counters per shard);
* ``stop`` — or EOF, which is what a dying load process leaves behind —
  drains the servers, prints a last snapshot and exits.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time

from repro.cluster.backend import BackendCacheServer
from repro.net.server import ShardServer

SHARDS = ("cache-0", "cache-1")
CAPACITY_BYTES = 64 << 20
VALUE_BYTES = 64


def snapshot(servers: list[ShardServer]) -> dict:
    shards = {}
    for server in servers:
        wire, backend = server.stats, server.backend.stats
        shards[server.server_id] = {
            "requests": wire.requests,
            "batches": wire.batches,
            "bytes_in": wire.bytes_in,
            "bytes_out": wire.bytes_out,
            "protocol_errors": wire.protocol_errors,
            "backend_gets": backend.gets,
            "backend_get_hits": backend.get_hits,
            "backend_sets": backend.sets,
            "backend_deletes": backend.deletes,
            "backend_evictions": backend.evictions,
        }
    return {
        "cpu_s": time.process_time(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "shards": shards,
    }


async def serve() -> None:
    servers = [
        await ShardServer(
            BackendCacheServer(
                sid, capacity_bytes=CAPACITY_BYTES, default_value_size=VALUE_BYTES
            )
        ).start()
        for sid in SHARDS
    ]

    def say(message: dict) -> None:
        print(json.dumps(message), flush=True)

    try:
        say({"ports": {server.server_id: server.port for server in servers}})
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if line.strip() != "stats":
                break
            say(snapshot(servers))
    finally:
        # The load process closes its sockets before it says "stop": give the
        # connection tasks a moment to see EOF and end on their own, or
        # ShardServer.stop() cancels them mid-close and asyncio logs it.
        await asyncio.sleep(0.05)
        for server in servers:
            await server.stop()
    say(snapshot(servers))


if __name__ == "__main__":
    asyncio.run(serve())
