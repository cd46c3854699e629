"""CI net-smoke check: the socket plane must carry real traffic and agree.

Three bounded probes of the network data plane (:mod:`repro.net`), run
from the repo root with PYTHONPATH=src (scripts/verify.sh does, under a
hard 60s timeout):

1. **closed loop** — 2 spawned asyncio shard servers + 2 spawned
   pipelined client processes on ephemeral localhost ports push a few
   thousand requests through real TCP sockets and report wall-clock
   requests/sec plus the measured latency distribution;
2. **pipelining** — one connection drives the same stream in lockstep
   and at depth 32; the pipelined run must be faster (the hard >= 3x
   gate lives in the perf gate, this stage only proves the mechanism).
   The same requests then go through a blocking ``ShardProxy``: its
   median round trip may be at most 1.15x the median awaited on the
   loop, both taken in this run, so a per-request hop to another thread
   (~2x when ``ShardProxy`` had one) cannot come back unnoticed;
3. **equivalence** — a 10k-request mixed stream replays through both
   planes with identical seeds; every front-end decision, shard counter
   and storage counter must match exactly.

A real file, not a shell heredoc: the harness spawns worker processes
that re-import ``__main__``.
"""

import sys

from repro.net.harness import (
    decision_equivalence,
    measure_pipelining,
    run_network_load,
)


def main() -> int:
    report = run_network_load(
        num_servers=2, num_clients=2, requests_per_client=2_000
    )
    p50 = report.histogram.percentile(50) * 1e6
    print(
        f"(closed loop: {report.requests:,} requests over TCP at "
        f"{report.throughput:,.0f} req/s, p50 {p50:,.0f}us, "
        f"{report.client_stats.get('connections', 0)} connection(s))"
    )
    if report.requests < 4_000:
        print("net smoke: closed loop lost requests", file=sys.stderr)
        return 1

    pipelining = measure_pipelining(requests=2_000, depth=32)
    print(
        f"(pipelining: lockstep {pipelining['unpipelined']:,.0f} req/s, "
        f"depth-32 {pipelining['pipelined']:,.0f} req/s, "
        f"speedup {pipelining['speedup']:.2f}x)"
    )
    if pipelining["speedup"] <= 1.0:
        print("net smoke: pipelining did not beat lockstep", file=sys.stderr)
        return 1
    awaited, proxy = pipelining["awaited_p50_us"], pipelining["proxy_p50_us"]
    print(
        f"(lockstep round trip: awaited on the loop p50 {awaited:,.0f}us, "
        f"through ShardProxy p50 {proxy:,.0f}us, ratio {proxy / awaited:.2f})"
    )
    if proxy > 1.15 * awaited:
        print("net smoke: ShardProxy's round trip costs more than the loop's",
              file=sys.stderr)
        return 1

    equal, in_process, networked = decision_equivalence(accesses=10_000)
    if not equal:
        print("net smoke: planes diverged on the equivalence stream",
              file=sys.stderr)
        print(f"  in-process: {in_process}", file=sys.stderr)
        print(f"  networked:  {networked}", file=sys.stderr)
        return 1
    hits = sum(fe["hits"] for fe in in_process["front_ends"])
    print(f"(equivalence: 10,000 requests, {hits:,} cache hits, "
          f"both planes decision-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
