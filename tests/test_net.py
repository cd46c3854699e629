"""Integration tests of the socket data plane (:mod:`repro.net`).

Everything here runs real asyncio servers on ephemeral localhost ports
(via :class:`~repro.net.plane.NetworkPlane`'s loop thread), at scales
that keep the whole file in tier-1 time. Nothing here takes a timing:
the socket plane is priced by the ladder's ``net-sync`` and
``net-pipelined`` workloads (``benchmarks/ladder``).
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.cluster.backend import BackendCacheServer
from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.cluster.faults import FaultInjector
from repro.cluster.retry import BreakerState
from repro.cluster.storage import PersistentStore
from repro.errors import ProtocolError, ShardDownError, ShardTimeoutError
from repro.net.client import Connection, NetClientStats, ShardEndpoint
from repro.net.plane import NetworkPlane, ShardProxy
from repro.net.proto import Reply, ResponseDecoder, Value
from repro.net import server as server_module
from repro.net.server import BATCH_BYTES, ShardServer
from repro.policies.base import MISSING
from repro.policies.registry import make_policy
from tests._plane_equivalence import decision_equivalence


def make_cluster(num_servers: int = 2, faults: bool = False) -> CacheCluster:
    return CacheCluster(
        num_servers=num_servers,
        capacity_bytes=1 << 20,
        value_size=1,
        virtual_nodes=64,
        storage=PersistentStore(lambda key: ("v", key)),
        faults=FaultInjector() if faults else None,
    )


@pytest.fixture
def plane():
    cluster = make_cluster(faults=True)
    plane = NetworkPlane(cluster).start()
    yield plane
    plane.close()


# -------------------------------------------------------------- shard proxy


def test_proxy_set_get_delete_roundtrip(plane):
    shard = plane.server(plane.server_ids[0])
    assert shard.get("k") is MISSING
    shard.set("k", ("tuple", 42))
    assert shard.get("k") == ("tuple", 42)
    assert shard.delete("k") is True
    assert shard.delete("k") is False
    assert shard.get("k") is MISSING


def test_get_many_is_one_wire_round_trip(plane):
    shard = plane.server(plane.server_ids[0])
    for i in range(8):
        shard.set(f"k{i}", i)
    before = plane.client_stats.requests
    got = shard.get_many([f"k{i}" for i in range(8)] + ["absent"])
    assert plane.client_stats.requests == before + 1
    assert got == {f"k{i}": i for i in range(8)}


def test_page_sized_get_many_reads_what_the_in_process_plane_reads():
    """Fails at the parent: each shard's ~1,000 keys went as one ``get`` line
    longer than MAX_LINE_BYTES, and the server refused it (``ProtocolError:
    CLIENT_ERROR line exceeds maximum length``)."""
    keys = [f"usertable:{i:07d}" for i in range(2_000)]

    def read(network: bool) -> tuple[dict, dict, int]:
        cluster = make_cluster()
        plane = NetworkPlane(cluster).start() if network else None
        try:
            got = FrontEndClient(plane or cluster, make_policy("cot", 64)).get_many(keys)
            gets = {sid: cluster.server(sid).stats.gets for sid in cluster.server_ids}
            return got, gets, plane.client_stats.requests if plane else 0
        finally:
            if plane is not None:
                plane.close()

    got, gets, _ = read(network=False)
    wire_got, wire_gets, requests = read(network=True)
    assert len(got) == len(keys) and wire_got == got
    assert wire_gets == gets and sum(gets.values()) == len(keys)
    assert requests > len(gets)  # some shard's keys took more than one line


def test_routing_matches_the_ring(plane):
    # server_for on the plane must route exactly like the wrapped cluster.
    for key in (f"usertable:{i}" for i in range(64)):
        assert (
            plane.server_for(key).server_id
            == plane.cluster.ring.server_for(key)
        )


# ------------------------------------------------------------ fault surface


def test_injected_faults_cross_the_wire(plane):
    sid = plane.server_ids[0]
    shard = plane.server(sid)
    shard.set("k", 1)
    plane.cluster.kill_server(sid)
    with pytest.raises(ShardDownError):
        shard.get("k")
    plane.cluster.revive_server(sid, cold=True)
    assert shard.get("k") is MISSING  # cold revival flushed the copy


def test_breaker_opens_on_wire_faults(plane):
    client = FrontEndClient(plane, make_policy("cot", 16))
    keys = [f"usertable:{i}" for i in range(32)]
    for key in keys:
        client.get(key)
    victim = plane.server_ids[0]
    plane.cluster.kill_server(victim)
    for key in keys * 4:
        client.get(key)  # storage fallback; breaker absorbs the failures
    assert client.guard.breaker(victim).state is BreakerState.OPEN


def test_drop_connections_forces_reconnect(plane):
    sid = plane.server_ids[0]
    shard = plane.server(sid)
    shard.set("k", 1)
    before = plane.client_stats.reconnects
    plane.drop_connections(sid)
    # Both ends of the socket are gone, so no request meets a dead one:
    # the next call connects afresh and the shard is reachable at once.
    assert shard.get("k") == 1
    assert plane.client_stats.reconnects == before + 1


def test_removed_shard_tears_down_its_server(plane):
    sid = plane.server_ids[-1]
    shard = plane.server(sid)
    shard.set("k", 1)
    server = plane._servers[sid]
    assert sid in plane.server_stats() and server.stats.active_connections == 1
    plane.cluster.remove_server(sid)
    assert sid not in plane.server_stats()
    assert shard._sock is None and server.stats.active_connections == 0
    with pytest.raises(ShardDownError, match="connect to"):
        shard.get("k")  # nothing listens there any more


def test_oversized_value_is_a_protocol_error(plane):
    shard = plane.server(plane.server_ids[0])
    with pytest.raises(ProtocolError):
        shard.set("big", b"x" * (2 << 20))
    # The connection survives the rejected set (recoverable damage).
    shard.set("small", b"ok")
    assert shard.get("small") == b"ok"


# ------------------------------------------------------- two-plane contract


def test_decision_equivalence_small_stream():
    # The default stream: 10,000 mixed requests over 2,000 keys.
    equal, in_process, networked = decision_equivalence()
    assert equal, {"in_process": in_process, "networked": networked}


def test_decision_equivalence_two_front_ends_sharing_the_proxies():
    equal, in_process, networked = decision_equivalence(
        accesses=1_500, key_space=400, cache_lines=64, num_front_ends=2
    )
    assert equal, {"in_process": in_process, "networked": networked}


def faulted_trace(network: bool, steps: int = 1_200) -> dict:
    """Counters after one seeded schedule with a shard killed, severed and revived."""
    cluster = make_cluster(faults=True)
    plane = NetworkPlane(cluster).start() if network else None
    try:
        client = FrontEndClient(plane or cluster, make_policy("cot", 32))
        rng = random.Random(5)
        victim = cluster.server_ids[0]
        for step in range(steps):
            if step == steps // 3:
                cluster.kill_server(victim)
                if plane is not None:
                    plane.drop_connections(victim)
            elif step == 2 * steps // 3:
                cluster.revive_server(victim, cold=True)
            key, draw = f"usertable:{rng.randrange(150)}", rng.random()
            if draw < 0.1:
                client.set(key, ("w", key, step))
            elif draw < 0.15:
                client.delete(key)
            else:
                client.get(key)
        policy, guard, storage = client.policy.stats, client.guard.stats, cluster.storage.stats
        return {
            "policy": (policy.accesses, policy.hits, policy.misses, policy.insertions),
            "cached": sorted(client.policy.cached_keys()),
            "guard": (guard.operations, guard.retries, guard.failures),
            "breaker": client.guard.breaker(victim).state,
            "shards": {
                sid: (s.stats.gets, s.stats.get_hits, s.stats.sets, s.stats.deletes,
                      s.stats.evictions, sorted(s.keys()))
                for sid, s in ((sid, cluster.server(sid)) for sid in cluster.server_ids)
            },
            "storage": (storage.reads, storage.writes, storage.deletes),
            "reconnects": plane.client_stats.reconnects if plane else None,
        }
    finally:
        if plane is not None:
            plane.close()


def test_planes_agree_through_a_kill_a_severed_socket_and_a_revival():
    in_process, networked = faulted_trace(network=False), faulted_trace(network=True)
    assert networked.pop("reconnects") >= 1 and in_process.pop("reconnects") is None
    assert in_process["guard"][2] > 0  # the schedule did meet the dead shard
    assert in_process == networked


def test_telemetry_counts_real_traffic(plane):
    shard = plane.server(plane.server_ids[0])
    for i in range(16):
        shard.set(f"k{i}", i)
        shard.get(f"k{i}")
    client, servers = plane.client_stats, list(plane.server_stats().values())
    assert client.requests >= 32
    assert sum(s.requests for s in servers) >= 32
    assert client.connections >= 1
    assert client.bytes_in > 0 and client.bytes_out > 0
    assert sum(s.bytes_in for s in servers) == client.bytes_out
    assert sum(client.batch_depths.values()) == client.batches > 0


# ---------------------------------------------------------- engine plumbing


def test_runner_network_axis_is_decision_identical():
    from repro.engine import telemetry as T
    from repro.engine.runners import ClusterRunner
    from repro.engine.spec import (
        NetworkSpec,
        PolicySpec,
        Scale,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    def spec(enabled: bool) -> ScenarioSpec:
        return ScenarioSpec(
            scale=Scale(
                "tiny", key_space=300, accesses=800,
                num_clients=1, num_servers=2, seed=11,
            ),
            workload=WorkloadSpec(dist="zipf-0.9"),
            policy=PolicySpec(name="cot", cache_lines=32),
            topology=TopologySpec(
                num_servers=2, num_clients=1,
                network=NetworkSpec() if enabled else None,
            ),
        )

    runner = ClusterRunner()
    off = runner.run(spec(False))
    on = runner.run(spec(True))
    for name in (T.HITS, T.MISSES, T.ACCESSES):
        assert off.telemetry.counter(name) == on.telemetry.counter(name)
    # net.* telemetry exists exactly when the axis is on.
    assert not [n for n in off.telemetry.counters if n.startswith("net.")]
    on_net = {n for n in on.telemetry.counters if n.startswith("net.")}
    assert {"net.requests", "net.connections"} <= on_net
    assert on.telemetry.histogram(T.NET_BATCH_DEPTH).count > 0


# ------------------------------------------------------- transport contract
#
# Raw peers on both sides of the wire: a listener that says only what the
# test tells it to (against the client transport) and a plain socket that
# pipelines bytes and reads when it chooses (against the shard server).

BIG = 1 << 16


class ScriptedPeer(asyncio.Protocol):
    """Server side of one accepted connection: records, never answers."""

    def __init__(self, accepted: list) -> None:
        self.received = bytearray()
        self.closed = False
        accepted.append(self)

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.received += data

    def connection_lost(self, exc):
        self.closed = True


async def scripted_listener():
    accepted: list[ScriptedPeer] = []
    listener = await asyncio.get_running_loop().create_server(
        lambda: ScriptedPeer(accepted), "127.0.0.1", 0
    )
    return listener, listener.sockets[0].getsockname()[1], accepted


async def until(condition, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_mute_server_times_out_and_late_reply_does_not_shift_the_fifo():
    async def main():
        listener, port, accepted = await scripted_listener()
        endpoint = ShardEndpoint("mute", "127.0.0.1", port, timeout=0.2)
        loop = asyncio.get_running_loop()
        start = loop.time()
        with pytest.raises(ShardTimeoutError, match="mute did not answer"):
            await endpoint.get("a")
        assert 0.2 <= loop.time() - start < 1.0
        assert endpoint.stats.timeouts == 1
        # The reply to "a" turns up late, ahead of the reply to "b".
        second = asyncio.ensure_future(endpoint.get("b"))
        await until(lambda: b"get b" in accepted[0].received)
        accepted[0].transport.write(
            Reply("END", values=(Value("a", 0, b"late"),)).encode()
            + Reply("END", values=(Value("b", 0, b"mine"),)).encode()
        )
        assert await second == b"mine"
        assert endpoint.stats.timeouts == 1
        assert endpoint.stats.reconnects == 0
        await endpoint.close()
        listener.close()

    asyncio.run(main())


def test_unsolicited_reply_kills_the_connection():
    async def main():
        listener, port, accepted = await scripted_listener()
        endpoint = ShardEndpoint("chatty", "127.0.0.1", port, timeout=1.0)
        first = asyncio.ensure_future(endpoint.get("a"))
        await until(lambda: accepted and b"get a" in accepted[0].received)
        accepted[0].transport.write(b"END\r\nSTORED\r\n")  # one reply too many
        assert await first is MISSING
        await until(lambda: accepted[0].closed)  # the client hung up
        assert endpoint._pool[0].dead
        # The stream cannot be trusted again: the next request reconnects.
        second = asyncio.ensure_future(endpoint.get("b"))
        await until(lambda: len(accepted) == 2 and b"get b" in accepted[1].received)
        assert endpoint.stats.reconnects == 1
        accepted[1].transport.write(b"END\r\n")
        assert await second is MISSING
        await endpoint.close()
        listener.close()

    asyncio.run(main())


# The blocking proxy against a listener on a thread of its own: ``script`` is
# handed the listening socket and plays the shard, accepting when it chooses.


@contextmanager
def scripted_shard(script, timeout: float):
    listener = socket.create_server(("127.0.0.1", 0))
    failures: list[BaseException] = []

    def run() -> None:
        try:
            script(listener)
        except BaseException as exc:  # re-raised in the test's thread below
            failures.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    port = listener.getsockname()[1]
    proxy = ShardProxy(ShardEndpoint("scripted", "127.0.0.1", port, timeout=timeout))
    try:
        yield proxy
        thread.join(5.0)
        assert not thread.is_alive(), "the scripted shard never finished"
        if failures:
            raise failures[0]
    finally:
        proxy.close()
        listener.close()


def accept_request(listener: socket.socket, expected: bytes) -> socket.socket:
    conn, _ = listener.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    received = b""
    while not received.endswith(b"\r\n"):
        received += conn.recv(4096)
    assert received == expected
    return conn


def trickle(conn: socket.socket, data: bytes, gap: float) -> None:
    """One byte per segment; stops when the peer hangs up."""
    try:
        for i in range(len(data)):
            conn.sendall(data[i : i + 1])
            time.sleep(gap)
    except OSError:
        pass


def value_reply(key: str, data: bytes) -> bytes:
    return Reply("END", values=(Value(key, 0, data),)).encode()


def test_blocking_proxy_mute_peer_times_out_and_its_late_reply_is_never_read():
    gave_up = threading.Event()

    def script(listener):
        first = accept_request(listener, b"get a\r\n")
        assert gave_up.wait(5.0)
        assert first.recv(4096) == b""  # the proxy hung up on the mute socket
        try:
            first.sendall(value_reply("a", b"late"))  # so this has nowhere to arrive
        except OSError:
            pass
        second = accept_request(listener, b"get b\r\n")
        second.sendall(value_reply("b", b"mine"))
        first.close()
        second.close()

    with scripted_shard(script, timeout=0.2) as proxy:
        stats = proxy._endpoint.stats
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError, match="scripted did not answer"):
            proxy.get("a")
        assert 0.2 <= time.monotonic() - start < 1.0
        assert (stats.timeouts, stats.reconnects) == (1, 0)
        gave_up.set()
        assert proxy.get("b") == b"mine"
        assert (stats.timeouts, stats.reconnects, stats.connections) == (1, 1, 2)


def test_blocking_proxy_deadline_covers_the_request_not_each_recv():
    reply = value_reply("a", b"x" * 60)

    def script(listener):
        conn = accept_request(listener, b"get a\r\n")
        trickle(conn, reply, gap=0.02)  # 1.5 s in all, never 0.3 s between two bytes
        conn.close()

    with scripted_shard(script, timeout=0.3) as proxy:
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError):
            proxy.get("a")
        assert 0.3 <= time.monotonic() - start < 1.0
        assert proxy._endpoint.stats.timeouts == 1
        assert proxy._sock is None


def test_blocking_proxy_reads_a_reply_that_arrives_a_byte_at_a_time():
    def script(listener):
        conn = accept_request(listener, b"get a\r\n")
        trickle(conn, value_reply("a", b"slowly"), gap=0.002)
        assert conn.recv(4096) == b"get b\r\n"  # on the same socket: nothing was dropped
        conn.sendall(b"END\r\n")
        conn.close()

    with scripted_shard(script, timeout=2.0) as proxy:
        assert proxy.get("a") == b"slowly"
        # The kernel's receive deadline is the endpoint's again, not what the
        # request's deadline had left when the last byte came.
        raw = proxy._sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)
        seconds, micros = struct.unpack("ll", raw)
        assert seconds + micros / 1e6 == pytest.approx(2.0)
        assert proxy.get("b") is MISSING
        assert proxy._endpoint.stats.connections == 1


def test_blocking_proxy_peer_closing_mid_reply_is_a_dead_shard_then_a_reconnect():
    def script(listener):
        conn = accept_request(listener, b"get a\r\n")
        conn.sendall(b"VALUE a 0 10\r\nabc")
        conn.close()
        conn = accept_request(listener, b"get a\r\n")
        conn.sendall(value_reply("a", b"whole"))
        conn.close()

    with scripted_shard(script, timeout=2.0) as proxy:
        stats = proxy._endpoint.stats
        with pytest.raises(ShardDownError, match="closed the connection"):
            proxy.get("a")
        assert (stats.reconnects, stats.timeouts) == (0, 0)
        assert proxy.get("a") == b"whole"  # and not b"abc" + the start of this reply
        assert stats.reconnects == 1


def test_blocking_proxy_second_reply_kills_the_socket():
    def script(listener):
        conn = accept_request(listener, b"get a\r\n")
        conn.sendall(b"END\r\nSTORED\r\n")  # one reply too many
        assert conn.recv(4096) == b""  # the proxy hung up
        conn.close()
        conn = accept_request(listener, b"get b\r\n")
        conn.sendall(b"END\r\n")
        conn.close()

    with scripted_shard(script, timeout=2.0) as proxy:
        with pytest.raises(ProtocolError, match="unsolicited"):
            proxy.get("a")
        assert proxy.get("b") is MISSING  # and not the stray STORED
        assert proxy._endpoint.stats.reconnects == 1


def test_threads_sharing_a_proxy_never_read_each_others_reply(plane):
    shard = plane.server(plane.server_ids[0])
    wrong: list[tuple] = []
    done = []
    stop_at = time.monotonic() + 10.0

    def hammer(name: str) -> None:
        for i in range(1_500):
            key = f"{name}:{i % 40}"
            shard.set(key, (name, i % 40))
            got = shard.get(key)
            if got != (name, i % 40):
                wrong.append((key, got))
            if time.monotonic() > stop_at:
                return
        done.append(name)

    threads = [threading.Thread(target=hammer, args=(n,), daemon=True) for n in "abc"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15.0)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert sorted(done) == ["a", "b", "c"] and not any(t.is_alive() for t in threads)
    assert plane.client_stats.connections == 1  # one socket carried all of it


def test_requests_of_one_loop_turn_leave_in_one_write():
    class RecordingTransport:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(data)

        def close(self):
            pass

    async def main():
        stats = NetClientStats()
        conn = Connection("s", 1.0, stats)
        transport = RecordingTransport()
        conn.connection_made(transport)
        frames = [b"get k%d\r\n" % i for i in range(7)]
        futures = [conn.request(frame) for frame in frames]
        assert transport.writes == []  # nothing leaves before the turn ends
        await asyncio.sleep(0)
        assert transport.writes == [b"".join(frames)]
        assert (stats.requests, stats.batches, stats.batch_depths) == (7, 1, {7: 1})
        conn.data_received(b"END\r\n" * 7)
        assert [f.result().kind for f in futures] == ["END"] * 7
        conn.connection_lost(None)

    asyncio.run(main())


def test_two_pipelined_sockets_each_read_their_own_replies():
    workers, rounds = 16, 25  # per socket: 16 requests in flight, 400 keys

    async def main():
        backend = BackendCacheServer("s", capacity_bytes=1 << 20, default_value_size=1)
        server = await ShardServer(backend).start()
        endpoints = {name: ShardEndpoint("s", *server.address) for name in "ab"}
        answered = dict.fromkeys(endpoints, 0)

        async def worker(name: str, index: int) -> None:
            endpoint = endpoints[name]
            for step in range(rounds):
                key = f"{name}:{index}:{step}"
                assert await endpoint.get(key) is MISSING
                await endpoint.set(key, key.encode())
                # The value names its key and its socket: a reply delivered
                # to the other connection, or out of order, cannot match.
                assert await endpoint.get(key) == key.encode()
                answered[name] += 1

        try:
            await asyncio.gather(
                *(worker(name, i) for name in endpoints for i in range(workers))
            )
        finally:
            for endpoint in endpoints.values():
                await endpoint.close()
            await server.stop()
        assert answered == dict.fromkeys(endpoints, workers * rounds)
        assert server.stats.connections == 2
        assert server.stats.requests == 2 * workers * rounds * 3
        assert server.stats.protocol_errors == 0
        assert max(server.stats.batch_depths) > 1  # it really pipelined

    asyncio.run(main())


async def big_value_server(keys: int = 4):
    backend = BackendCacheServer("s", capacity_bytes=1 << 30)
    for i in range(keys):
        backend.set(f"k{i}", (0, bytes([65 + i]) * BIG))  # what a wire `set` stores
    return await ShardServer(backend).start()


async def raw_peer(server: ShardServer) -> socket.socket:
    sock = socket.socket()
    # A small receive buffer: the kernel holds little on the peer's behalf.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, BIG)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, server.address)
    return sock


async def read_replies(sock: socket.socket, count: int | None) -> list[Reply]:
    """``count`` replies off a raw socket (``None``: all of them, to EOF)."""
    loop, decoder, replies = asyncio.get_running_loop(), ResponseDecoder(), []
    while count is None or len(replies) < count:
        data = await loop.sock_recv(sock, 1 << 20)
        if not data:
            assert count is None, f"EOF after {len(replies)} of {count} replies"
            break
        replies += decoder.feed(data)
    return replies


def kernel_queues(sock: socket.socket) -> int:
    """Bytes the kernel holds on ``sock``'s connection, both ends: the
    server end's send queue plus this end's unread receive queue (Linux)."""
    here, there = sock.getsockname()[1], sock.getpeername()[1]
    queued = 0
    with open("/proc/net/tcp") as table:
        for line in list(table)[1:]:
            fields = line.split()
            local, remote = int(fields[1][-4:], 16), int(fields[2][-4:], 16)
            tx, rx = (int(n, 16) for n in fields[4].split(":"))
            if (local, remote) == (there, here):
                queued += tx
            elif (local, remote) == (here, there):
                queued += rx
    return queued


def test_peer_that_does_not_read_stalls_the_server_not_its_memory():
    sent = 2_000

    async def main():
        server = await big_value_server()
        sock = await raw_peer(server)
        pipeline = b"".join(b"get k%d\r\n" % (i % 4) for i in range(sent))
        await asyncio.get_running_loop().sock_sendall(sock, pipeline)
        await until(lambda: server.stats.bytes_in == len(pipeline))
        stalled_at = -1
        while server.stats.requests != stalled_at:  # until its sendall blocks
            stalled_at = server.stats.requests
            await asyncio.sleep(0.05)
        await asyncio.sleep(0.1)
        # Flow control, not a queue: the server executes no further than
        # the socket can take, and what it has answered but the kernel has
        # not taken — one batch, at most the mark plus one reply — is all
        # it holds for the peer.
        assert server.stats.requests == stalled_at < sent
        held = server.stats.bytes_out - kernel_queues(sock)
        assert 0 <= held <= BATCH_BYTES + BIG + 64
        replies = await read_replies(sock, sent)
        assert [r.values[0].key for r in replies] == [f"k{i % 4}" for i in range(sent)]
        assert all(r.values[0].data == bytes([65 + i % 4]) * BIG for i, r in enumerate(replies))
        assert server.stats.requests == sent
        sock.close()
        await server.stop()

    asyncio.run(main())


def test_drain_delivers_replies_of_requests_already_received():
    sent = 300  # ~19 MiB of replies: most are unwritten when stop() is called

    async def main():
        server = await big_value_server()
        sock = await raw_peer(server)
        pipeline = b"".join(b"get k%d\r\n" % (i % 4) for i in range(sent))
        await asyncio.get_running_loop().sock_sendall(sock, pipeline)
        await until(lambda: server.stats.bytes_in == len(pipeline))
        assert server.stats.requests < sent
        stopping = asyncio.ensure_future(server.stop(drain=True))
        replies = await read_replies(sock, None)  # to EOF: the drain closes the socket
        assert [r.values[0].key for r in replies] == [f"k{i % 4}" for i in range(sent)]
        await stopping
        assert server.stats.active_connections == 0
        sock.close()

    asyncio.run(main())


@pytest.mark.parametrize(
    "sent, expected",
    [
        (b"get a\r\nquit\r\nget b\r\n", b"END\r\n"),
        (b"get a\r\nset k 0 0 nan\r\nget b\r\n", b"END\r\nCLIENT_ERROR bad set header\r\n"),
    ],
    ids=["quit", "fatal-frame"],
)
def test_quit_and_fatal_frames_answer_then_close(sent, expected):
    async def main():
        server = await ShardServer(BackendCacheServer("s")).start()
        sock = await raw_peer(server)
        loop = asyncio.get_running_loop()
        await loop.sock_sendall(sock, sent)
        received = bytearray()
        while data := await loop.sock_recv(sock, 4096):
            received += data
        assert bytes(received) == expected  # then EOF: nothing after is served
        await until(lambda: server.stats.active_connections == 0)
        sock.close()
        await server.stop()

    asyncio.run(main())


@pytest.mark.parametrize(
    "line",
    [b"gets k", b"touch k 0", b"touch k 0 noreply", b"version"],
    ids=["gets", "touch", "touch-noreply", "version"],
)
def test_a_verb_the_client_never_sends_is_an_error_and_the_connection_serves_on(line):
    async def main():
        backend = BackendCacheServer("s")
        backend.set("k", (0, b"v"))
        server = await ShardServer(backend).start()
        sock = await raw_peer(server)
        await asyncio.get_running_loop().sock_sendall(sock, line + b"\r\nget k\r\n")
        refusal, got = await read_replies(sock, 2)
        assert refusal.kind == "ERROR"
        assert got == Reply("END", values=(Value("k", 0, b"v"),))
        assert server.stats.protocol_errors == 1
        assert server.stats.active_connections == 1  # never hung up on
        sock.close()
        await server.stop()

    asyncio.run(main())


def test_stop_right_after_the_client_closes_logs_nothing(caplog):
    """PR 12 finding: stop() used to cancel connection tasks mid-close."""

    async def main():
        complaints = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: complaints.append(context)
        )
        server = await ShardServer(BackendCacheServer("s")).start()
        endpoint = ShardEndpoint("s", server.host, server.port)
        await endpoint.set("k", b"v")
        # Both in one loop turn: the server meets the client's EOF inside stop().
        await asyncio.gather(endpoint.close(), server.stop())
        assert server.stats.active_connections == 0
        return complaints

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        assert asyncio.run(main()) == []
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


# ------------------------------------------------ threads, sockets and caps


def own_listeners() -> set[str]:
    """Inodes of this process's listening TCP sockets (Linux)."""
    with open("/proc/net/tcp") as table:
        listening = {f[9] for f in map(str.split, list(table)[1:]) if f[3] == "0A"}
    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            mine.add(target[8:-1])
    return mine


@contextmanager
def leaves_nothing_running():
    """The block ends with this process's thread count and listening
    sockets where they were when it began."""
    threads, listeners = threading.active_count(), own_listeners()
    yield
    assert threading.active_count() == threads
    assert own_listeners() == listeners


def test_plane_close_leaves_no_thread_or_listener():
    with leaves_nothing_running():
        plane = NetworkPlane(make_cluster(num_servers=3)).start()
        for sid in plane.server_ids:
            plane.server(sid).set("k", sid)
        plane.close()


def test_awaited_stop_leaves_no_thread_or_listener():
    async def main():
        server = await ShardServer(BackendCacheServer("s")).start()
        endpoint = ShardEndpoint("s", *server.address, pool_size=2)
        await asyncio.gather(*(endpoint.set(f"k{i}", b"v") for i in range(8)))
        await endpoint.close()
        await server.stop()
        assert server.stats.active_connections == 0

    with leaves_nothing_running():
        asyncio.run(main())


def test_dropped_and_reconnected_twenty_times_leaves_nothing_running():
    with leaves_nothing_running():
        plane = NetworkPlane(make_cluster()).start()
        sid = plane.server_ids[0]
        shard = plane.server(sid)
        shard.set("k", 1)
        for _ in range(20):
            plane.drop_connections(sid)
            assert shard.get("k") == 1
        server = plane._servers[sid]
        assert (server.stats.connections, plane.client_stats.reconnects) == (21, 20)
        plane.close()


def test_close_against_a_peer_that_never_reads_is_bounded():
    drain = 0.5

    async def main():
        server = await big_value_server()
        sock = await raw_peer(server)
        pipeline = b"get k0\r\n" * 200  # ~13 MiB of replies, never read
        await asyncio.get_running_loop().sock_sendall(sock, pipeline)
        await until(lambda: server.stats.bytes_in == len(pipeline))
        start = time.monotonic()
        await server.stop(drain=True, timeout=drain)
        # The drain waits its whole timeout on the stalled send, then the
        # abort ends it at once.
        assert drain <= time.monotonic() - start < drain + 1.0
        assert server.stats.active_connections == 0
        assert server.stats.requests < 200
        sock.close()

    with leaves_nothing_running():
        asyncio.run(main())


class YieldingBackend(BackendCacheServer):
    """Counts its calls with a read-modify-write that lets other threads
    run midway: only a lock around the calls keeps the count."""

    calls = 0

    def _count(self) -> None:
        seen = self.calls
        time.sleep(0)
        self.calls = seen + 1

    def get(self, key):
        self._count()
        return super().get(key)

    def set(self, key, value, size=None):
        self._count()
        super().set(key, value, size)


def test_connections_sharing_a_shard_keep_its_counts_exact():
    """One server thread per connection, all on one backend: the shard lock
    keeps every read-modify-write of the backend and the wire counters."""
    clients, rounds = 4, 300  # more connections than cores
    backend = YieldingBackend("s", capacity_bytes=1 << 20, default_value_size=1)
    server = ShardServer(backend).serve()
    stats = NetClientStats()
    proxies = [ShardProxy(ShardEndpoint("s", *server.address, stats=stats)) for _ in range(clients)]
    wrong: list[tuple] = []

    def hammer(index: int) -> None:
        for step in range(rounds):
            key = f"{index}:{step % 20}"
            proxies[index].set(key, step)
            if proxies[index].get(key) != step:
                wrong.append((key, step))

    threads = [threading.Thread(target=hammer, args=(i,), daemon=True) for i in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
        for proxy in proxies:
            proxy.close()
        server.close()
    assert not any(t.is_alive() for t in threads) and wrong == []
    total = clients * rounds * 2
    assert (server.stats.requests, server.stats.batches) == (total, total)  # lockstep
    assert server.stats.batch_depths == {1: total}
    assert backend.calls == total
    assert (backend.stats.sets, backend.stats.gets) == (total // 2, total // 2)
    assert (server.stats.bytes_in, server.stats.bytes_out) == (stats.bytes_out, stats.bytes_in)


def test_a_connection_over_the_cap_is_refused_as_a_down_shard(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    with leaves_nothing_running():
        server = ShardServer(BackendCacheServer("s")).serve()
        held = socket.create_connection(server.address)
        proxy = ShardProxy(ShardEndpoint("s", *server.address, timeout=2.0))
        try:
            held.sendall(b"get a\r\n")
            assert held.recv(4096) == b"END\r\n"  # served: it holds the one slot
            with pytest.raises(ShardDownError, match="too many connections"):
                proxy.get("a")
            assert (server.stats.connections, server.stats.refused) == (1, 1)
            proxy.close()
            held.close()
            deadline = time.monotonic() + 5.0
            while server.stats.active_connections:
                assert time.monotonic() < deadline, "the held connection never closed"
                time.sleep(0.005)
            assert proxy.get("a") is MISSING  # the slot is free again
        finally:
            proxy.close()
            held.close()
            server.close()


def test_a_refused_proxy_reconnects_on_its_next_request(monkeypatch):
    """Fails at the parent: the proxy kept the socket the server had closed
    behind its refusal, so the next request failed once more (``connection
    lost: ... Connection reset by peer``) before one reconnected."""
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    with leaves_nothing_running():
        backend = BackendCacheServer("s")
        backend.set("a", (0, b"v"))
        server = ShardServer(backend).serve()
        held = socket.create_connection(server.address)
        stats = NetClientStats()
        proxy = ShardProxy(ShardEndpoint("s", *server.address, timeout=2.0, stats=stats))
        try:
            held.sendall(b"get a\r\n")
            assert held.recv(4096).endswith(b"END\r\n")  # served: it holds the one slot
            with pytest.raises(ShardDownError, match="too many connections"):
                proxy.get("a")
            held.close()
            deadline = time.monotonic() + 5.0
            while server.stats.active_connections:
                assert time.monotonic() < deadline, "the held connection never closed"
                time.sleep(0.005)
            assert proxy.get("a") == b"v"
            assert (stats.connections, stats.reconnects) == (2, 1)
            assert server.stats.refused == 1
        finally:
            proxy.close()
            held.close()
            server.close()


# ------------------------------------------- the shard never reads a value


def test_whatever_a_peer_stores_the_server_echoes_and_survives(caplog):
    """Fails at the parent: the first two ``set``\\ s (unknown flags, a junk
    pickle) raised out of ``data_received`` — asyncio logged "Fatal error",
    the connection died with no reply frame and ``protocol_errors`` stayed 0.
    """
    rng = random.Random(16)
    stores = [(99, b"x"), (1, b"abc")] + [(flags, rng.randbytes(64)) for flags in range(8)]

    async def main():
        complaints = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: complaints.append(context))
        server = await ShardServer(BackendCacheServer("s")).start()
        sock = await raw_peer(server)
        for flags, payload in stores:
            await loop.sock_sendall(
                sock, b"set k %d 0 %d\r\n%b\r\nget k\r\n" % (flags, len(payload), payload)
            )
            stored, got = await read_replies(sock, 2)
            assert stored == Reply("STORED")
            assert got == Reply("END", values=(Value("k", flags, payload),))  # verbatim
        assert server.stats.active_connections == 1  # the same connection throughout
        assert server.stats.protocol_errors == 0
        sock.close()
        await server.stop()
        return complaints

    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        assert asyncio.run(main()) == []
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_malformed_line_storm_leaves_server_memory_flat():
    """ROADMAP 1b's storm: 20k malformed lines on one connection, no growth
    after the first thousand. Covers behaviour no test covered (passes at the
    parent, whose decoder also held nothing per refused line).
    """
    # An unknown verb and a known verb used wrongly: both recoverable.
    burst = b"frobnicate now\r\n" * 500 + b"get\r\n" * 500

    async def main():
        server = await ShardServer(BackendCacheServer("s")).start()
        sock = await raw_peer(server)

        async def storm(bursts: int) -> None:
            for _ in range(bursts):
                await asyncio.get_running_loop().sock_sendall(sock, burst)
                assert all(reply.is_error for reply in await read_replies(sock, 1000))

        tracemalloc.start()
        try:
            await storm(1)
            before = tracemalloc.take_snapshot()
            await storm(19)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        top = after.compare_to(before, "lineno")[0]
        assert top.size_diff < 32 * 1024, top
        assert server.stats.protocol_errors == 20_000
        assert server.stats.active_connections == 1  # never hung up on
        sock.close()
        await server.stop()

    asyncio.run(main())
