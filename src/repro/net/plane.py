"""The network plane: a cluster facade whose shards live behind sockets.

:class:`NetworkPlane` wraps an existing
:class:`~repro.cluster.cluster.CacheCluster` and serves every backend
shard over a localhost TCP socket (one threaded
:class:`~repro.net.server.ShardServer` each). It re-exposes the
cluster's *client-facing* surface — ``ring``, ``storage``,
``server_ids``, ``server()``/``server_for()``, the revival/removal
listener lists — but ``server()`` resolves to a :class:`ShardProxy`
whose verbs cross the wire on a blocking socket **in the caller's
thread**: a round trip is one ``send`` and one ``recv`` at each end, and
no event loop runs in the plane. (Coroutine callers, which pipeline, use
:class:`~repro.net.client.ShardEndpoint`, on a :class:`LoopThread` from
sync code; both transports share :mod:`repro.net.client`'s verbs and
counters.)

Because the facade duck-types ``CacheCluster`` exactly where front ends
touch it, an **unchanged** :class:`~repro.cluster.client.FrontEndClient`
(elastic, replicated — all of them) runs against the plane and
makes byte-identical cache decisions: policy admissions, ring routing,
retries, breaker trips and storage fallbacks all execute the same code;
only the shard hop is real I/O. That is the two-plane equivalence
argument (DESIGN.md §15), and the replay in ``tests/_plane_equivalence.py``
checks it end to end on every tier-1 run (``tests/test_net.py``).

Topology churn maps onto real sockets: shards added after start are
served lazily on first route; removed shards tear their server and
their proxy's socket down via the cluster's ``removal_listeners``;
:meth:`drop_connections` hard-drops a shard's sockets at both ends (the
network face of a kill) and the proxy reconnects lazily on next use.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
from contextlib import suppress
from time import monotonic
from typing import Any, Callable, Hashable, Iterable

from repro.cluster.cluster import CacheCluster
from repro.errors import ClusterError, ProtocolError, ShardDownError
from repro.net import client
from repro.net.client import NetClientStats, ShardEndpoint
from repro.net.proto import Reply, ResponseDecoder
from repro.net.server import REFUSAL, ShardServer, ShardServerStats

__all__ = ["LoopThread", "NetworkPlane", "ShardProxy"]


class LoopThread:
    """An asyncio event loop running in a daemon thread, callable from sync code."""

    def __init__(self, name: str = "repro-net-loop") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro, timeout: float | None = None) -> Any:
        """Run ``coro`` on the loop and block for its result (lifecycle work only)."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        if not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=5.0)
            self.loop.close()


def _timeval(seconds: float) -> bytes:
    """``seconds`` as a ``SO_RCVTIMEO`` value, ≥ 1 µs (a zero one never expires)."""
    micros = max(1, round(seconds * 1e6))
    return struct.pack("ll", micros // 1_000_000, micros % 1_000_000)


class ShardProxy:
    """Synchronous shard-object stand-in: one blocking socket to one shard.

    Exposes exactly the surface front ends use on a
    :class:`~repro.cluster.backend.BackendCacheServer` — ``server_id``,
    ``get``, ``get_many``, ``set``, ``delete`` — each call one round trip
    (a ``get_many`` one per ``get`` line) made in the calling thread,
    raising the same
    :class:`~repro.errors.ShardFailure` types the in-process plane
    raises. Address, timeout and counters are those of ``endpoint``
    (whose own connections go unused); ``loop`` is accepted and ignored.

    A lock admits one request at a time, so the next bytes on the socket
    are its reply. Whenever that stops being certain — the deadline
    passed, the peer hung up, the stream did not parse, a second reply
    arrived — or the server refused the connection at its cap, the socket
    is closed: a late reply has nowhere to arrive, and the next request
    connects afresh.
    The kernel keeps the deadline (``SO_RCVTIMEO``/``SO_SNDTIMEO`` on a
    blocking socket), so a round trip is one ``send`` and one ``recv``.
    """

    def __init__(self, endpoint: ShardEndpoint, loop: LoopThread | None = None) -> None:
        self.server_id = endpoint.server_id
        self._endpoint = endpoint
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._decoder = ResponseDecoder()
        self._lost = False  # a socket was closed: the next connect is a reconnect
        self._deadline = _timeval(endpoint.timeout)

    def _connect(self) -> socket.socket:
        endpoint = self._endpoint
        address = (endpoint.host, endpoint.port)
        try:
            sock = socket.create_connection(address, endpoint.timeout)
        except OSError as exc:
            raise ShardDownError(f"connect to {address} failed: {exc}") from exc
        sock.settimeout(None)  # blocking: the kernel keeps the deadline
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, self._deadline)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, self._deadline)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as asyncio does
        endpoint.stats.connections += 1
        endpoint.stats.reconnects += self._lost
        self._sock, self._decoder, self._lost = sock, ResponseDecoder(), False
        return sock

    def close(self) -> None:
        """Close the socket, once no request is in flight on it."""
        with self._lock:
            if self._sock is not None:
                self._sock.close()
                self._sock, self._lost = None, True

    def _receive(self, sock: socket.socket) -> list[Reply]:
        data = sock.recv(1 << 16)
        if not data:
            raise ShardDownError("server closed the connection")
        self._endpoint.stats.bytes_in += len(data)
        return self._decoder.feed(data)

    def _round_trip(self, frame: bytes) -> Reply:
        """Send one frame and block for its one reply."""
        stats, timeout = self._endpoint.stats, self._endpoint.timeout
        with self._lock:
            sock = self._sock or self._connect()
            deadline = monotonic() + timeout
            try:
                sock.sendall(frame)
                stats.requests += 1  # NetClientStats.sent(1, len(frame)), inlined
                stats.batches += 1
                stats.bytes_out += len(frame)
                stats.batch_depths[1] = stats.batch_depths.get(1, 0) + 1
                replies = self._receive(sock)
                while not replies:
                    # The reply is arriving in pieces: the kernel deadline bounds
                    # one recv, the rest share what is left of the request's.
                    left = deadline - monotonic()
                    if left <= 0:
                        raise TimeoutError
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(left))
                    replies = self._receive(sock)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, self._deadline)
                if len(replies) > 1 or self._decoder.broken or not self._decoder.idle:
                    raise ProtocolError(f"{self.server_id}: unparsable or unsolicited response")
            except (TimeoutError, BlockingIOError):  # EAGAIN: the kernel deadline passed
                self.close()
                raise stats.timed_out(self.server_id, timeout) from None
            except OSError as exc:
                self.close()
                raise ShardDownError(f"connection lost: {exc}") from exc
            except (ShardDownError, ProtocolError):
                self.close()
                raise
            if replies[0].message == REFUSAL:  # the server closed this socket behind it
                self.close()
        return stats.checked(self.server_id, replies[0])

    # -------------------------------------------------------- shard surface

    def get(self, key: Hashable) -> Any:
        return client.decode_get(self._round_trip(client.encode_get(key)))

    def get_many(self, keys: Iterable[Hashable]) -> dict[Hashable, Any]:
        keys = list(keys)
        if not keys:
            return {}
        replies = [self._round_trip(frame) for frame in client.encode_get_many(keys)]
        return client.decode_get_many(keys, replies)

    def set(self, key: Hashable, value: Any, size: int | None = None) -> None:
        self._round_trip(client.encode_set(key, value))

    def delete(self, key: Hashable) -> bool:
        return client.decode_delete(self._round_trip(client.encode_delete(key)))


class NetworkPlane:
    """Serve a :class:`CacheCluster`'s shards over localhost sockets.

    Construct, :meth:`start`, hand to front ends in place of the
    cluster, :meth:`close` when done (also a context manager). Each
    shard gets one :class:`ShardProxy`, hence one client socket:
    ``pool_size`` is accepted for callers that still pass it and has no
    effect.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        host: str = "127.0.0.1",
        pool_size: int = 1,
        timeout: float = 5.0,
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.timeout = timeout
        self.client_stats = NetClientStats()
        self._servers: dict[str, ShardServer] = {}
        self._proxies: dict[str, ShardProxy] = {}
        self._started = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "NetworkPlane":
        if self._started:
            return self
        for server_id in self.cluster.server_ids:
            self._serve_shard(server_id)
        self.cluster.removal_listeners.append(self._on_server_removed)
        self._started = True
        return self

    def close(self) -> None:
        if not self._started:
            return
        self._started = False
        with suppress(ValueError):
            self.cluster.removal_listeners.remove(self._on_server_removed)
        for server_id in list(self._servers):
            self._on_server_removed(server_id)

    def __enter__(self) -> "NetworkPlane":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _serve_shard(self, server_id: str) -> None:
        server = ShardServer(self.cluster.server(server_id), host=self.host).serve()
        endpoint = ShardEndpoint(
            server_id, server.host, server.port, timeout=self.timeout, stats=self.client_stats
        )
        self._servers[server_id] = server
        self._proxies[server_id] = ShardProxy(endpoint)

    def _on_server_removed(self, server_id: str) -> None:
        server = self._servers.pop(server_id, None)
        proxy = self._proxies.pop(server_id, None)
        if proxy is not None:
            proxy.close()
        if server is not None:
            server.close()

    # ------------------------------------------------------- fault surface

    def drop_connections(self, server_id: str) -> None:
        """Hard-drop a shard's live sockets, both ends (network face of a kill)."""
        server = self._servers.get(server_id)
        if server is not None:
            server.abort_connections()
            self._proxies[server_id].close()

    # -------------------------------------------------- cluster duck-typing

    @property
    def ring(self):
        return self.cluster.ring

    @property
    def storage(self):
        return self.cluster.storage

    @property
    def faults(self):
        return self.cluster.faults

    @property
    def server_ids(self) -> tuple[str, ...]:
        return self.cluster.server_ids

    @property
    def removal_listeners(self) -> list[Callable[[str], None]]:
        return self.cluster.removal_listeners

    @property
    def cold_revival_listeners(self) -> list[Callable[[str], None]]:
        return self.cluster.cold_revival_listeners

    def server(self, server_id: str) -> ShardProxy:
        proxy = self._proxies.get(server_id)
        if proxy is None:
            if not self._started:
                raise ShardDownError("network plane is not started")
            # A shard added after start is served lazily on first route.
            if server_id not in self.cluster.server_ids:
                raise ClusterError(f"unknown server: {server_id}")
            self._serve_shard(server_id)
            proxy = self._proxies[server_id]
        return proxy

    def server_for(self, key: Hashable) -> ShardProxy:
        return self.server(self.cluster.ring.server_for(key))

    def replicas_for(self, key: Hashable, r: int) -> tuple[str, ...]:
        return self.cluster.replicas_for(key, r)

    # ------------------------------------------------------------ telemetry

    def server_stats(self) -> dict[str, ShardServerStats]:
        return {sid: srv.stats for sid, srv in self._servers.items()}
