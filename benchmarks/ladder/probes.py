"""Micro-probes of the traced run: what spans around calls cannot see.

Each probe replays a sample of the workload's *own* requests (the last
traced block) through one isolated piece of ``repro.net``, whether or
not the workload itself crosses the wire:

* :func:`proto` — the text codec and the value codec, frame by frame;
* :func:`round_trips` — lockstep round trips on a plane-shaped topology, once
  awaited directly on the loop thread and once through ``ShardProxy``;
  the difference is the cross-thread hop.

A wire request is ``(verb, key, value)`` with verb ``get``/``set``/``delete``;
a ``get`` that misses is followed by the ``set`` the miss path would send.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Any, Callable

from repro.cluster.backend import BackendCacheServer
from repro.net import proto as wire
from repro.net.client import ShardEndpoint
from repro.net.plane import LoopThread, ShardProxy
from repro.net.server import ShardServer
from repro.policies.base import MISSING

from calib import one_cpu

__all__ = ["proto", "round_trips"]

WireRequest = tuple[str, str, Any]
#: alternating passes of each kind in :func:`round_trips`
_PASSES = 4


def _ns_per_item(fn: Callable[[Any], Any], items: list) -> float:
    start = perf_counter_ns()
    for item in items:
        fn(item)
    return (perf_counter_ns() - start) / len(items)


def proto(requests: list[WireRequest]) -> dict[str, float]:
    """Codec cost per request: encode, decode, and the value codec alone.

    A ``get`` is priced as a hit: its reply carries the value.
    """
    dumped = [wire.dump_value(value) for _verb, _key, value in requests]
    commands, replies = [], []
    for (verb, key, _value), (flags, payload) in zip(requests, dumped):
        if verb == "get":
            commands.append(wire.GetCommand((key,)))
            replies.append(wire.Reply("END", values=(wire.Value(key, flags, payload),)))
        elif verb == "set":
            commands.append(wire.SetCommand(key, flags, 0, payload))
            replies.append(wire.Reply("STORED"))
        else:
            commands.append(wire.DeleteCommand(key))
            replies.append(wire.Reply("DELETED"))
    encode = _ns_per_item(lambda frame: frame.encode(), commands + replies) * 2
    decode = _ns_per_item(
        wire.RequestDecoder().feed, [command.encode() for command in commands]
    ) + _ns_per_item(wire.ResponseDecoder().feed, [reply.encode() for reply in replies])
    # A delete moves no value; a get (priced as a hit) or a set moves one.
    moved = [
        (value, pair)
        for (verb, _key, value), pair in zip(requests, dumped)
        if verb != "delete"
    ]
    codec = (
        _ns_per_item(lambda item: wire.dump_value(item[0]), moved)
        + _ns_per_item(lambda item: wire.load_value(*item[1]), moved)
    ) * len(moved) / len(requests)
    return {
        "net.proto.encode_ns_per_req": encode,
        "net.proto.decode_ns_per_req": decode,
        "net.proto.value_codec_ns_per_req": codec,
    }


async def _replay_on_loop(endpoint: ShardEndpoint, requests: list[WireRequest]) -> list[int]:
    """One wire call at a time, each stopwatched, from a coroutine on the loop."""
    latencies: list[int] = []

    async def timed(call: Any) -> Any:
        start = perf_counter_ns()
        result = await call
        latencies.append(perf_counter_ns() - start)
        return result

    for verb, key, value in requests:
        if verb == "get":
            if await timed(endpoint.get(key)) is MISSING:
                await timed(endpoint.set(key, value))
        elif verb == "set":
            await timed(endpoint.set(key, value))
        else:
            await timed(endpoint.delete(key))
    return latencies


def _replay_through_proxy(shard: ShardProxy, requests: list[WireRequest]) -> list[int]:
    """The same calls from this thread: each one hops to the loop thread and back."""
    latencies: list[int] = []

    def timed(call: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter_ns()
        result = call(*args)
        latencies.append(perf_counter_ns() - start)
        return result

    for verb, key, value in requests:
        if verb == "get":
            if timed(shard.get, key) is MISSING:
                timed(shard.set, key, value)
        elif verb == "set":
            timed(shard.set, key, value)
        else:
            timed(shard.delete, key)
    return latencies


def round_trips(requests: list[WireRequest]) -> dict[str, float]:
    """Lockstep round-trip time and the price of ``ShardProxy``'s thread hop.

    Builds what ``NetworkPlane`` builds per shard — a ``ShardServer`` and a
    ``ShardEndpoint`` on one ``LoopThread`` — and replays ``requests``
    against it both ways.
    """
    with one_cpu():  # the placement net-sync runs in
        loop = LoopThread("ladder-probe")
        try:
            backend = BackendCacheServer("probe")
            server = ShardServer(backend)
            loop.call(server.start())
            endpoint = ShardEndpoint("probe", server.host, server.port, pool_size=1)
            try:
                # Alternate short passes, each from a cold shard, so that a rough
                # patch of the host lands on both kinds of pass and not on one.
                shard = ShardProxy(endpoint, loop)
                direct: list[int] = []
                hopped: list[int] = []
                for part in range(_PASSES):
                    backend.flush()
                    direct += loop.call(_replay_on_loop(endpoint, requests[part::_PASSES]))
                    backend.flush()
                    hopped += _replay_through_proxy(shard, requests[part::_PASSES])
            finally:
                loop.call(endpoint.close())
                loop.call(server.stop())
        finally:
            loop.stop()
    return {
        "net.rtt_lockstep_us": statistics.median(direct) / 1e3,
        "net.plane.hop_us": (statistics.median(hopped) - statistics.median(direct)) / 1e3,
    }
