"""Asyncio shard server speaking the memcached-style text protocol.

One :class:`ShardServer` wraps one
:class:`~repro.cluster.backend.BackendCacheServer` and serves it over a
TCP socket, one :class:`asyncio.Protocol` per connection
(DESIGN.md §15):

* ``data_received`` parses the chunk where it lies
  (:class:`~repro.net.proto.RequestDecoder`), executes every decoded
  command against the backend — the calls are synchronous — and
  **answers the whole batch with one socket write**, the server-side
  half of pipelining (the batch-depth distribution is recorded per
  write). Values cross unread: the backend holds the ``(flags, payload)``
  pair a ``set`` carried, so nothing a peer sends is interpreted here;
* load leveling is the transport's own flow control: when a peer stops
  reading, its write buffer passes the high-water mark, the connection
  stops reading the socket and stops executing decoded commands, and
  TCP backpressure reaches the client instead of unbounded buffering;
  the held commands run, in order, once the buffer drains;
* injected shard failures (:class:`~repro.errors.ShardFailure`) become
  ``SERVER_ERROR <code> …`` frames, so fault schedules exercise the
  wire path end to end and the client reconstructs the exact exception
  type for its retry/breaker layer.

Shutdown is a **graceful drain**: :meth:`ShardServer.stop` first closes
the listener (no new connections), then closes every connection the
flushing way — replies to requests already received are delivered
before the socket goes — and only aborts what outlives the timeout.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.backend import BackendCacheServer
from repro.errors import ShardFailure
from repro.policies.base import MISSING as _MISSING
from repro.net import proto
from repro.net.proto import (
    DeleteCommand,
    GetCommand,
    QuitCommand,
    Reply,
    RequestDecoder,
    SetCommand,
    TouchCommand,
    VersionCommand,
    encode_value,
)

__all__ = ["ShardServer", "ShardServerStats", "SERVER_VERSION"]

SERVER_VERSION = "repro-net/1"

@dataclass
class ShardServerStats:
    """Wire-level counters for one shard server (feeds ``net.*`` telemetry)."""

    connections: int = 0
    active_connections: int = 0
    requests: int = 0
    batches: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    protocol_errors: int = 0
    fault_errors: int = 0
    #: commands answered per socket write: {depth: writes at that depth}
    batch_depths: dict[int, int] = field(default_factory=dict)


class _Connection(asyncio.Protocol):
    """One client connection: decode, execute, answer — all in ``data_received``."""

    def __init__(self, server: "ShardServer") -> None:
        self.server = server
        self.decoder = RequestDecoder(max_value_bytes=server.max_value_bytes)
        self.transport: asyncio.Transport | None = None
        #: decoded commands not yet executed (non-empty only while paused)
        self._backlog: deque = deque()
        self._paused = False  # the transport's write buffer is over high water
        self._closing = False  # close once the backlog is answered
        self._high_water = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._high_water = transport.get_write_buffer_limits()[1]
        server = self.server
        server.stats.connections += 1
        server.stats.active_connections += 1
        server._connections.add(self)
        server._idle.clear()
        if server._server is None:  # accepted while stop() was closing the listener
            transport.abort()

    def connection_lost(self, exc: Exception | None) -> None:
        server = self.server
        server.stats.active_connections -= 1
        server._connections.discard(self)
        if not server._connections:
            server._idle.set()

    def data_received(self, data: bytes) -> None:
        self.server.stats.bytes_in += len(data)
        self._backlog.extend(self.decoder.feed(data))
        self._serve()

    def eof_received(self) -> bool:
        self.shutdown()
        return True  # shutdown() closes, now or when the backlog is answered

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop taking its requests.
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._serve()
        if not self._paused:
            self.transport.resume_reading()

    def shutdown(self) -> None:
        """Answer what was already received, flush, then close."""
        self._closing = True
        if not self._backlog:
            self.transport.close()

    def _hang_up(self) -> None:
        """``quit`` or lost framing: nothing after this command is served."""
        self._backlog.clear()
        self._closing = True

    def _serve(self) -> None:
        """Execute backlogged commands in order, one write per batch.

        A batch ends when the backlog does, or early once its replies
        fill the room left under the write buffer's high-water mark — so
        a peer that does not read is owed at most that mark plus one
        reply. The write may pause the transport, which ends the loop.
        """
        stats = self.server.stats
        transport = self.transport
        backlog = self._backlog
        while backlog and not self._paused:
            room = self._high_water - transport.get_write_buffer_size()
            out: list[bytes] = []
            size = depth = 0
            while backlog and size <= room:
                depth += 1
                reply = self._execute(backlog.popleft())
                if reply is not None:
                    out.append(reply)
                    size += len(reply)
            stats.requests += depth
            stats.batches += 1
            stats.batch_depths[depth] = stats.batch_depths.get(depth, 0) + 1
            if out:
                stats.bytes_out += size
                transport.write(b"".join(out))
        if self._closing and not backlog:
            transport.close()  # flushes the replies just written first

    def _execute(self, cmd) -> bytes | None:
        """Run one command against the backend; its reply frame, formatted once."""
        backend = self.server.backend
        kind = type(cmd)
        try:
            if kind is GetCommand:
                keys = cmd.keys
                cas = 0 if cmd.cas else None
                if len(keys) == 1:
                    # Mirror the in-process plane exactly: a single-key
                    # get is `server.get`, a batch is `server.get_many`.
                    entry = backend.get(keys[0])
                    if entry is _MISSING:
                        return b"END\r\n"
                    return encode_value(keys[0], entry[0], entry[1], cas) + b"END\r\n"
                found = backend.get_many(list(keys))
                values = [encode_value(k, *found[k], cas) for k in keys if k in found]
                return b"".join(values) + b"END\r\n"
            if kind is SetCommand:
                backend.set(cmd.key, (cmd.flags, cmd.data))
                return None if cmd.noreply else b"STORED\r\n"
            if kind is DeleteCommand:
                existed = backend.delete(cmd.key)
                if cmd.noreply:
                    return None
                return b"DELETED\r\n" if existed else b"NOT_FOUND\r\n"
            if kind is TouchCommand:
                # The backend has no per-entry TTL; touch degrades to a
                # counter-neutral membership probe so the verb exists on
                # the wire without perturbing decision equivalence.
                if cmd.noreply:
                    return None
                return b"TOUCHED\r\n" if cmd.key in backend else b"NOT_FOUND\r\n"
        except ShardFailure as exc:
            self.server.stats.fault_errors += 1
            return proto.encode_failure(exc).encode()
        if kind is VersionCommand:
            return Reply("VERSION", SERVER_VERSION).encode()
        if kind is QuitCommand:
            self._hang_up()
            return None
        self.server.stats.protocol_errors += 1  # what is left is a BadCommand
        if cmd.fatal:
            self._hang_up()
        return Reply(cmd.kind, cmd.message).encode()


class ShardServer:
    """Serve one backend shard on a TCP port (ephemeral by default)."""

    def __init__(
        self,
        backend: BackendCacheServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_value_bytes: int = proto.MAX_VALUE_BYTES,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.max_value_bytes = max_value_bytes
        self.stats = ShardServerStats()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._idle = asyncio.Event()  # set while there are no connections
        self._idle.set()

    @property
    def server_id(self) -> str:
        return self.backend.server_id

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> "ShardServer":
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def abort_connections(self) -> None:
        """Hard-drop every live connection (simulates an instance crash).

        Clients observe a ``ConnectionError`` mid-flight — the network
        analogue of a killed shard — and reconnect lazily on next use.
        """
        for conn in list(self._connections):
            conn.transport.abort()

    async def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop serving; with ``drain`` (default) finish inflight work first."""
        listener, self._server = self._server, None
        if listener is not None:
            listener.close()
        if drain:
            for conn in list(self._connections):
                conn.shutdown()
            await self._wait_idle(timeout)
        self.abort_connections()
        await self._wait_idle(timeout)
        if listener is not None:
            await listener.wait_closed()

    async def _wait_idle(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass
