"""Benchmark + regeneration of the chaos extension experiment.

Asserts the fault-tolerance acceptance criteria: a chaos run that kills
1 of 4 shards (then revives it, replaces another, and makes a third
flaky) completes without exceptions, serves every read correctly via
storage fallback, reports a nonzero degraded-read count, and the elastic
controller issues no resize attributable to the dead shard's zero-load
entry (no EXPAND while a shard is down, no phantom I_c spike).
"""

from __future__ import annotations

from repro.engine import Scale
from repro.experiments import extension_chaos


def bench_extension_chaos(benchmark, record_result):
    scale = Scale.smoke().scaled(
        name="bench", accesses=120_000, num_clients=1, num_servers=4
    )
    result = benchmark.pedantic(
        lambda: extension_chaos.run(scale, num_servers=4),
        rounds=1,
        iterations=1,
    )
    record_result(benchmark, result)
    benchmark.extra_info["resilience"] = result.extras["resilience"]

    # Every read verified against authoritative storage — the outage must
    # be invisible to correctness.
    assert result.extras["incorrect_reads"] == 0
    # The outage must be *visible* to the instrumentation: reads served
    # by storage fallback while the shard was down.
    assert result.extras["degraded_reads"] > 0
    # Churn-safe accounting: no phantom I_c epoch anywhere in the run and
    # no EXPAND riding one (the zero-load bug produced ratios in the
    # hundreds; genuine readings stay in low single digits).
    assert result.extras["spurious_expands"] == 0
    assert result.extras["phantom_epochs"] == 0
    assert result.extras["churn_max_imbalance"] < 5.0
    # The breaker opened during the outage. No breaker closes in this
    # schedule: the cold revival drops the open breaker rather than
    # probing it closed, and the flaky phase never opens one.
    assert result.extras["resilience"]["breaker_opens"] > 0
