"""Pipelined asyncio front-end transport for the shard servers.

For coroutine callers, which keep many requests in flight; a caller that
blocks for one reply goes through :class:`repro.net.plane.ShardProxy`.
Four parts (DESIGN.md §15):

* :class:`Connection` — one persistent socket with **request
  pipelining**, an :class:`asyncio.Protocol`: the requests of one loop
  turn leave in one ``transport.write``, and a FIFO of futures matches
  the replies, which come back in request order as memcached's do. One
  sweep timer per connection expires overdue requests.
* :class:`ShardEndpoint` — a **connection pool** per shard; each
  request picks the pooled connection with the fewest inflight
  requests, reconnecting lazily (and counting reconnects) after a drop.
  Timeouts and socket errors raise :class:`~repro.errors.ShardTimeoutError`
  / :class:`~repro.errors.ShardDownError`, so the unchanged retry and
  breaker layer acts as on the in-process plane; a ``SERVER_ERROR``
  frame raises the injected type (:func:`repro.net.proto.decode_failure`).
* the **shard verbs** — ``encode_*``/``decode_*``: a verb's frame and
  what its reply means. Both transports call these (and count into
  :class:`NetClientStats`), so they cannot answer a request differently.
* :class:`NetClientStats` — wire counters (bytes, timeouts, reconnects,
  pipelined batch depths) that surface as ``net.*`` telemetry.

A ``get_many`` (the proxy's) is **one round trip per line-sized group**
of one owner's keys: as few multi-key ``get`` lines as keep each within
:data:`~repro.net.proto.MAX_LINE_BYTES` (16 KiB of keys a line).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import (
    ProtocolError,
    ShardDownError,
    ShardTimeoutError,
)
from repro.net import proto
from repro.net.proto import Reply, ResponseDecoder
from repro.policies.base import MISSING

__all__ = ["Connection", "NetClientStats", "ShardEndpoint"]


@dataclass
class NetClientStats:
    """Client-side wire counters (feeds ``net.*`` telemetry)."""

    connections: int = 0
    reconnects: int = 0
    requests: int = 0
    #: ``transport.write`` calls, i.e. real ``send``s: one per loop turn
    #: per connection that had requests to send
    batches: int = 0
    timeouts: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: requests per ``send``: {depth: sends that carried that many}
    batch_depths: dict[int, int] = field(default_factory=dict)

    def sent(self, depth: int, nbytes: int) -> None:
        """Count one ``send`` of ``nbytes`` that carried ``depth`` requests."""
        self.requests += depth
        self.batches += 1
        self.bytes_out += nbytes
        self.batch_depths[depth] = self.batch_depths.get(depth, 0) + 1

    def timed_out(self, name: str, timeout: float) -> ShardTimeoutError:
        """Count one request that outlived its deadline; the error to raise."""
        self.timeouts += 1
        return ShardTimeoutError(f"{name} did not answer within {timeout}s")

    def checked(self, name: str, reply: Reply) -> Reply:
        """Pass ``reply`` through unless it is an error frame, which is counted and raised:
        ``SERVER_ERROR`` as the shard failure it carries, any other as ``ProtocolError``."""
        if reply.is_error:
            self.errors += 1
            if reply.kind == "SERVER_ERROR":
                raise proto.decode_failure(reply)
            raise ProtocolError(f"{name}: {reply.kind} {reply.message}")
        return reply


# The shard verbs: a verb's frame and what its reply means, for both transports.


def encode_get(key: Hashable) -> bytes:
    return proto.get_frame((str(key),))


def encode_get_many(keys: list[Hashable]) -> list[bytes]:
    """The ``get`` frames of a batch: one per line-sized group of ``keys``."""
    return proto.get_frames(list(map(str, keys)))


def encode_set(key: Hashable, value: Any) -> bytes:
    flags, payload = proto.dump_value(value)
    return proto.set_frame(str(key), flags, 0, payload)


def encode_delete(key: Hashable) -> bytes:
    return proto.delete_frame(str(key))


def decode_get(reply: Reply) -> Any:
    if not reply.values:
        return MISSING
    value = reply.values[0]
    return proto.load_value(value.flags, value.data)


def decode_get_many(keys: list[Hashable], replies: list[Reply]) -> dict[Hashable, Any]:
    """What the replies to a batch's ``get`` frames found, keyed as asked."""
    by_wire_key = {v.key: proto.load_value(v.flags, v.data) for r in replies for v in r.values}
    return {k: by_wire_key[str(k)] for k in keys if str(k) in by_wire_key}


def decode_delete(reply: Reply) -> bool:
    return reply.kind == "DELETED"


class Connection(asyncio.Protocol):
    """One pipelined persistent connection to a shard server."""

    def __init__(self, name: str, timeout: float, stats: NetClientStats) -> None:
        self.name = name
        self.timeout = timeout
        self.stats = stats
        self.decoder = ResponseDecoder()
        self.dead = False
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        #: one ``(future, deadline)`` slot per request awaiting its reply,
        #: in wire order; a timed-out slot stays so later replies still match
        self._fifo: deque[tuple[asyncio.Future, float]] = deque()
        self._outbox: list[bytes] = []
        self._sweep: asyncio.TimerHandle | None = None
        self._closed: asyncio.Future = self._loop.create_future()

    @classmethod
    async def open(
        cls, name: str, host: str, port: int, timeout: float, stats: NetClientStats
    ) -> "Connection":
        try:
            _, conn = await asyncio.get_running_loop().create_connection(
                lambda: cls(name, timeout, stats), host, port
            )
        except OSError as exc:
            raise ShardDownError(f"connect to {host}:{port} failed: {exc}") from exc
        stats.connections += 1
        return conn

    @property
    def inflight(self) -> int:
        return len(self._fifo)

    def request(self, payload: bytes) -> "asyncio.Future[Reply]":
        """Pipeline one encoded request; the future resolves to its reply.

        The frame joins the outbox; the first frame of a loop turn
        schedules the flush that sends the whole outbox at once.
        """
        if self.dead:
            raise ShardDownError("connection is closed")
        loop = self._loop
        future: asyncio.Future = loop.create_future()
        deadline = loop.time() + self.timeout
        self._fifo.append((future, deadline))
        if not self._outbox:
            loop.call_soon(self._flush)
        self._outbox.append(payload)
        if self._sweep is None:
            self._sweep = loop.call_at(deadline, self._expire)
        return future

    def _flush(self) -> None:
        outbox, self._outbox = self._outbox, []
        if not self.dead:
            data = b"".join(outbox)
            self.stats.sent(len(outbox), len(data))
            self._transport.write(data)

    def _expire(self) -> None:
        """Fail every overdue request, then sleep until the next deadline.

        Deadlines rise along the FIFO, so the walk ends at the first
        live slot; with nothing inflight the timer is simply dropped
        (the next request re-arms it), so steady traffic pays one timer
        per ``timeout``, not one per request.
        """
        self._sweep = None
        now = self._loop.time()
        for future, deadline in self._fifo:
            if future.done():
                continue
            if deadline > now:
                self._sweep = self._loop.call_at(deadline, self._expire)
                return
            future.set_exception(self.stats.timed_out(self.name, self.timeout))

    # ------------------------------------------------- asyncio.Protocol

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self.stats.bytes_in += len(data)
        fifo = self._fifo
        for reply in self.decoder.feed(data):
            if not fifo:
                # Unsolicited frame: the stream is unsyncable.
                self._fail(ProtocolError("unsolicited response"))
                return
            future = fifo.popleft()[0]
            if not future.done():
                future.set_result(reply)
        if self.decoder.broken:
            self._fail(ProtocolError("response stream unparsable"))

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is None:
            self._fail(ShardDownError("server closed the connection"))
        else:
            self._fail(ShardDownError(f"connection lost: {exc}"))
        self._closed.set_result(None)

    def _fail(self, exc: Exception) -> None:
        """Go dead: fail every pending request and close the socket."""
        self.dead = True
        fifo, self._fifo = self._fifo, deque()
        for future, _deadline in fifo:
            if not future.done():
                future.set_exception(exc)
        if self._sweep is not None:
            self._sweep.cancel()
            self._sweep = None
        self._transport.close()

    async def close(self) -> None:
        self._fail(ShardDownError("connection closed"))
        await self._closed


class ShardEndpoint:
    """Connection pool + request API for one shard server.

    The async surface mirrors the
    :class:`~repro.cluster.backend.BackendCacheServer` client surface
    (``get``/``set``/``delete``), returning/raising exactly what the
    in-process plane would — including ``MISSING`` on a miss and
    :class:`~repro.errors.ShardFailure` subclasses on faults.
    """

    def __init__(
        self,
        server_id: str,
        host: str,
        port: int,
        pool_size: int = 1,
        timeout: float = 5.0,
        stats: NetClientStats | None = None,
    ) -> None:
        self.server_id = server_id
        self.host = host
        self.port = port
        self.pool_size = max(1, pool_size)
        self.timeout = timeout
        self.stats = stats if stats is not None else NetClientStats()
        self._pool: list[Connection | None] = [None] * self.pool_size
        self._connect_lock: asyncio.Lock | None = None

    # ------------------------------------------------------------ transport

    async def _connect(self) -> Connection:
        """Fill one empty or dead pool slot (or share one just filled).

        Connection establishment is serialized behind a lock so a burst
        of concurrent requests against an empty (or just-dropped) pool
        shares the slot's one socket instead of racing opens — the whole
        point of pipelining is many requests per connection.
        """
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            best = self._pick()  # someone else may have connected meanwhile
            if best is not None:
                return best
            for slot, conn in enumerate(self._pool):
                if conn is None or conn.dead:
                    if conn is not None and conn.dead:
                        self.stats.reconnects += 1
                    opened = await Connection.open(
                        self.server_id, self.host, self.port, self.timeout, self.stats
                    )
                    self._pool[slot] = opened
                    return opened
        raise ShardDownError("connection pool exhausted")  # pragma: no cover

    def _pick(self) -> Connection | None:
        """The live pooled connection with the fewest inflight requests.

        ``None`` when a slot is empty/dead — the pool prefers opening
        (under the lock) up to ``pool_size`` sockets before stacking.
        """
        best: Connection | None = None
        for conn in self._pool:
            if conn is None or conn.dead:
                return None
            if best is None or conn.inflight < best.inflight:
                best = conn
        return best

    async def request(self, frame: bytes) -> Reply:
        """One pipelined round-trip, with timeout/error → failure mapping."""
        conn = self._pick() or await self._connect()
        return self.stats.checked(self.server_id, await conn.request(frame))

    # -------------------------------------------------------- shard surface

    async def get(self, key: Hashable) -> Any:
        return decode_get(await self.request(encode_get(key)))

    async def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        await self.request(encode_set(key, value))

    async def delete(self, key: Hashable) -> bool:
        return decode_delete(await self.request(encode_delete(key)))

    async def close(self) -> None:
        pool, self._pool = self._pool, [None] * self.pool_size
        for conn in pool:
            if conn is not None:
                await conn.close()
