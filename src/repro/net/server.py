"""Threaded shard server speaking the memcached-style text protocol.

One :class:`ShardServer` serves one
:class:`~repro.cluster.backend.BackendCacheServer` over a TCP socket
(DESIGN.md §15). An accept thread hands each connection to a blocking
thread of its own, which loops: ``recv`` up to 64 KiB, parse the chunk
where it lies (:class:`~repro.net.proto.RequestDecoder`), execute the
decoded commands and answer each batch with one ``sendall`` — the
server-side half of pipelining. A batch ends once its replies pass
:data:`BATCH_BYTES`, so a peer that stops reading blocks only its own
thread, which then holds one batch plus one reply for it and reads
nothing more: TCP backpressure reaches the peer. Values cross unread (the
backend holds the ``(flags, payload)`` a ``set`` carried); an injected
:class:`~repro.errors.ShardFailure` becomes a ``SERVER_ERROR <code> …``
frame, which the client raises as the same exception type.

One lock per server wraps the backend calls and every
:class:`ShardServerStats` update, so counts stay exact however many
connections share the shard. Past :data:`MAX_CONNECTIONS` a connection is
answered ``SERVER_ERROR down …`` and closed. :meth:`ShardServer.close`
drains: close the listener, shut every connection for reading (each
answers what it had received, then closes), join their threads and abort
what outlives the timeout. No thread outlives it.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from time import monotonic

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
)

__all__ = ["ShardServer", "ShardServerStats"]

#: a batch ends once its replies pass this many bytes (and one ``recv`` reads as many)
BATCH_BYTES = 1 << 16
#: connections served at once, per server; one more is refused
MAX_CONNECTIONS = 64

#: the text of the one reply a refused connection gets before it is closed
REFUSAL = "down too many connections"
_REFUSED = Reply("SERVER_ERROR", REFUSAL).encode()


@dataclass
class ShardServerStats:
    """Wire-level counters for one shard server (feeds ``net.*`` telemetry)."""

    connections: int = 0
    active_connections: int = 0
    #: connections turned away at :data:`MAX_CONNECTIONS`
    refused: int = 0
    requests: int = 0
    batches: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    protocol_errors: int = 0
    fault_errors: int = 0
    #: commands answered per socket write: {depth: writes at that depth}
    batch_depths: dict[int, int] = field(default_factory=dict)


def _shut(sock: socket.socket, how: int) -> None:
    with suppress(OSError):  # already closed, or the peer is gone
        sock.shutdown(how)


class _Connection:
    """One client connection on a thread of its own: read, decode, execute, answer."""

    def __init__(self, server: "ShardServer", sock: socket.socket) -> None:
        self.server = server
        self.sock = sock
        self.decoder = RequestDecoder(max_value_bytes=server.max_value_bytes)
        self._open = True  # False after ``quit`` or lost framing
        self.thread = threading.Thread(
            target=self._run, name=f"repro-net-{server.server_id}", daemon=True
        )

    def _run(self) -> None:
        server, sock, feed = self.server, self.sock, self.decoder.feed
        try:
            # To EOF; a draining server answers the chunk in hand, then reads no more.
            while self._open and not server._draining and (data := sock.recv(BATCH_BYTES)):
                self._answer(len(data), feed(data))
        except OSError:  # the peer is gone, or abort_connections() shut the socket
            pass
        finally:
            with server._lock:  # abort_connections() never shuts a closed socket
                server.stats.active_connections -= 1
                sock.close()

    def _answer(self, received: int, commands: list) -> None:
        """Execute ``commands`` in order, one ``sendall`` per batch of at
        most :data:`BATCH_BYTES` plus one reply."""
        server, sock = self.server, self.sock
        stats, lock = server.stats, server._lock
        with lock:
            stats.bytes_in += received
        i, n = 0, len(commands)
        while i < n and self._open:
            out: list[bytes] = []
            size, start = 0, i
            with lock:
                while i < n and size <= BATCH_BYTES and self._open:
                    reply = self._execute(commands[i])
                    i += 1
                    if reply is not None:
                        out.append(reply)
                        size += len(reply)
                depth = i - start
                stats.requests += depth
                stats.batches += 1
                stats.batch_depths[depth] = stats.batch_depths.get(depth, 0) + 1
                stats.bytes_out += size
            if out:
                sock.sendall(b"".join(out))  # one reply: joined without a copy

    def _execute(self, cmd) -> bytes | None:
        """Run one command against the backend; its reply frame, formatted once."""
        backend = self.server.backend
        kind = type(cmd)
        try:
            if kind is GetCommand:
                keys = cmd.keys
                if len(keys) == 1:
                    # Mirror the in-process plane exactly: a single-key
                    # get is `server.get`, a batch is `server.get_many`.
                    entry = backend.get(keys[0])
                    if entry is _MISSING:
                        return proto.END_REPLY
                    return proto.value_reply(keys[0], entry[0], entry[1])
                found = backend.get_many(list(keys))
                values = [proto.encode_value(k, *found[k]) for k in keys if k in found]
                return b"".join([*values, proto.END_REPLY])
            if kind is SetCommand:
                backend.set(cmd.key, (cmd.flags, cmd.data))
                return None if cmd.noreply else proto.STORED_REPLY
            if kind is DeleteCommand:
                existed = backend.delete(cmd.key)
                if cmd.noreply:
                    return None
                return proto.DELETED_REPLY if existed else proto.NOT_FOUND_REPLY
        except ShardFailure as exc:
            self.server.stats.fault_errors += 1
            return proto.encode_failure(exc).encode()
        if kind is QuitCommand:
            self._open = False  # nothing after this command is served
            return None
        self.server.stats.protocol_errors += 1  # what is left is a BadCommand
        if cmd.fatal:
            self._open = False
        return Reply(cmd.kind, cmd.message).encode()


class ShardServer:
    """Serve one backend shard on a TCP port (ephemeral by default)."""

    def __init__(
        self, backend: BackendCacheServer, host: str = "127.0.0.1", port: int = 0,
        max_value_bytes: int = proto.MAX_VALUE_BYTES,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.max_value_bytes = max_value_bytes
        self.stats = ShardServerStats()
        self._lock = threading.Lock()  # the backend, the stats and the sockets' shutdowns
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: every connection whose thread may still run (pruned on accept)
        self._connections: list[_Connection] = []
        self._draining = False

    @property
    def server_id(self) -> str:
        return self.backend.server_id

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def serve(self) -> "ShardServer":
        """Listen, and accept on a thread of its own until :meth:`close`."""
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept, args=(listener,),
            name=f"repro-net-accept-{self.server_id}", daemon=True,
        )
        self._acceptor.start()
        return self

    def _accept(self, listener: socket.socket) -> None:
        stats = self.stats
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # close() shut the listener
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._connections = [c for c in self._connections if c.thread.is_alive()]
                refused = stats.active_connections >= MAX_CONNECTIONS
                if refused:
                    stats.refused += 1
                else:
                    conn = _Connection(self, sock)
                    self._connections.append(conn)
                    stats.connections += 1
                    stats.active_connections += 1
            if refused:
                with suppress(OSError):
                    sock.sendall(_REFUSED)
                sock.close()
            else:
                conn.thread.start()

    def abort_connections(self) -> None:
        """Hard-drop every live connection (the network face of a killed
        shard): clients see the socket die mid-flight and reconnect lazily."""
        with self._lock:
            for conn in self._connections:
                _shut(conn.sock, socket.SHUT_RDWR)

    def close(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop serving; with ``drain`` (default) each connection first
        answers what it had received, for up to ``timeout`` seconds in all."""
        listener, self._listener = self._listener, None
        if listener is not None:
            _shut(listener, socket.SHUT_RDWR)  # wakes the blocked accept()
            self._acceptor.join()
            listener.close()
        with self._lock:
            self._draining = True
            connections = list(self._connections)
            if drain:
                for conn in connections:
                    _shut(conn.sock, socket.SHUT_RD)
        if drain:
            deadline = monotonic() + timeout
            for conn in connections:
                conn.thread.join(max(0.0, deadline - monotonic()))
        self.abort_connections()
        for conn in connections:
            conn.thread.join()

    async def start(self) -> "ShardServer":
        return self.serve()

    async def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """:meth:`close` off the loop, so a loop that is the draining peer keeps reading."""
        await asyncio.to_thread(self.close, drain, timeout)
