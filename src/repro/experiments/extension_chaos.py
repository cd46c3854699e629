"""Extension: chaos run — shard failures under an elastic front end.

The paper's evaluation assumes a healthy caching layer; clouds do not.
This harness drives the usual Zipfian read stream through an
:class:`~repro.core.elastic.ElasticCoTClient` while a chaos schedule
kills, revives, replaces and degrades back-end shards, and checks three
things the fault-tolerant data plane promises:

* **correctness** — every read returns the authoritative storage value
  even while its owning shard is dead (degraded reads fall back to the
  persistent layer);
* **graceful degradation** — outages show up as counted degraded reads,
  retries and breaker transitions, not as exceptions;
* **churn-safe elasticity** — the controller issues no spurious
  ``EXPAND`` during the outage: a dead (or replaced) shard's zero-load
  entry must not fabricate an ``I_c`` spike.

The run is the engine's phased cluster mode: a healthy warm-up phase
long enough for the Figure-7 style expansion to converge, then six chaos
phases (kill → sustained outage → cold revival → shard replacement →
flaky shard → all clear), each a :class:`~repro.engine.spec.Phase` whose
action fires against the live cluster. Each phase's
:class:`~repro.engine.telemetry.PhaseTelemetry` reports hit rate,
degraded reads, retry/breaker activity, resize decisions and the worst
per-epoch ``I_c`` observed. The verdicts are counts, so :func:`run` owns
them: it raises :class:`~repro.errors.ExperimentError` on any incorrect
read, on no degraded read, on a spurious expand or phantom epoch, on a
churn-phase ``I_c`` of ``CHURN_IMBALANCE_LIMIT`` or more, and on no
breaker opening — which fails ``verify.sh``'s engine-smoke stage.
"""

from __future__ import annotations

from typing import Hashable

from repro.cluster.faults import FaultInjector
from repro.cluster.retry import BreakerConfig, ClusterGuard
from repro.cluster.storage import PersistentStore
from repro.core.elastic import ElasticCoTClient
from repro.engine import (
    ClusterRunner,
    Phase,
    RunContext,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.engine.registry import register_experiment
from repro.experiments.common import ExperimentResult, Scale, require

__all__ = ["run", "EXPERIMENT_ID", "expected_value"]

EXPERIMENT_ID = "ext-chaos"

THETA = 1.2
TARGET_IMBALANCE = 1.1
#: flaky-phase injected error rate (retries should absorb nearly all of it)
FLAKY_RATE = 0.10
#: breaker trips after this many consecutive failures to one shard
FAILURE_THRESHOLD = 4
#: logical operations before an open breaker half-opens to probe
BREAKER_COOLDOWN = 512.0
#: an epoch I_c at or above this is a phantom reading — the zero-load
#: accounting bug produced ratios of ~epoch_length/1 (hundreds), while a
#: genuine skew reading at these scales stays in low single digits
PHANTOM_IMBALANCE = 10.0
#: the worst epoch I_c a churn phase may read (genuine skew readings at
#: these scales stay in low single digits)
CHURN_IMBALANCE_LIMIT = 5.0


def expected_value(key: Hashable) -> object:
    """Authoritative value of ``key`` — what every read must return."""
    return ("chaos-value", key)


def run(scale: Scale | None = None, num_servers: int = 4) -> ExperimentResult:
    """Chaos schedule against an elastic front end; returns per-phase rows."""
    scale = scale or Scale.default()
    faults = FaultInjector(seed=scale.seed)
    storage = PersistentStore(value_factory=expected_value)
    base_epoch = max(500, scale.accesses // 100)

    def client_factory(cluster, _i: int) -> ElasticCoTClient:
        guard = ClusterGuard(
            cluster.server_ids,
            max_attempts=2,
            breaker=BreakerConfig(
                failure_threshold=FAILURE_THRESHOLD, cooldown=BREAKER_COOLDOWN
            ),
        )
        return ElasticCoTClient(
            cluster,
            target_imbalance=TARGET_IMBALANCE,
            initial_cache=2,
            initial_tracker=4,
            base_epoch=base_epoch,
            client_id="chaos-0",
            guard=guard,
        )

    victim = "cache-1"
    replaced = "cache-2"
    flaky = "cache-0"
    replacement: list[str] = []

    def _replace_shard(ctx: RunContext) -> None:
        ctx.cluster.remove_server(replaced)
        replacement.append(ctx.cluster.add_server().server_id)

    warmup = scale.accesses // 2
    chaos_each = (scale.accesses - warmup) // 6
    # (phase, counts-as-churn-for-elasticity)
    schedule: list[tuple[Phase, bool]] = [
        (Phase("healthy warm-up", accesses=warmup), False),
        (
            Phase(
                f"kill {victim}",
                accesses=chaos_each,
                action=lambda ctx: ctx.cluster.kill_server(victim),
            ),
            True,
        ),
        (Phase("outage continues", accesses=chaos_each), True),
        (
            Phase(
                f"revive {victim} (cold)",
                accesses=chaos_each,
                action=lambda ctx: ctx.cluster.revive_server(victim),
            ),
            True,
        ),
        (Phase(f"replace {replaced}", accesses=chaos_each, action=_replace_shard), True),
        (
            Phase(
                f"flaky {flaky} @{FLAKY_RATE:.0%}",
                accesses=chaos_each,
                action=lambda ctx: ctx.cluster.faults.set_flaky(flaky, FLAKY_RATE),
            ),
            False,
        ),
        (
            Phase(
                "all faults cleared",
                accesses=chaos_each,
                action=lambda ctx: ctx.cluster.faults.clear(flaky),
            ),
            False,
        ),
    ]

    spec = ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(dist=f"zipf-{THETA:g}"),
        topology=TopologySpec(
            num_servers=num_servers,
            num_clients=1,
            storage=storage,
            faults=faults,
        ),
        client_factory=client_factory,
        phases=tuple(phase for phase, _churn in schedule),
        verify_value=expected_value,
    )
    result = ClusterRunner().run(spec)
    client = result.front_end

    rows: list[list[object]] = []
    incorrect_total = 0
    spurious_expands = 0
    phantom_epochs = 0
    churn_max_imbalance = 0.0
    post_warmup_expands = 0
    for phase, (_spec_phase, churn) in zip(result.telemetry.phases, schedule):
        outage = bool(phase.down)
        incorrect_total += phase.incorrect_reads
        records = phase.epoch_events
        expands = sum(1 for r in records if r.decision == "expand")
        max_imbalance = phase.max_imbalance
        if phase.index > 0:
            post_warmup_expands += expands
        phantom_epochs += sum(
            1 for r in records if r.snapshot.imbalance >= PHANTOM_IMBALANCE
        )
        if outage:
            # An EXPAND riding a phantom I_c would mean the dead shard's
            # zero-load entry leaked into the controller's reading.
            spurious_expands += sum(
                1
                for r in records
                if r.decision == "expand"
                and r.snapshot.imbalance >= PHANTOM_IMBALANCE
            )
        if churn:
            churn_max_imbalance = max(churn_max_imbalance, max_imbalance)
        rows.append(
            [
                phase.index,
                phase.label,
                ",".join(phase.down) or "-",
                phase.reads,
                round(100.0 * phase.hit_rate, 2),
                phase.degraded_reads,
                phase.retries,
                phase.open_rejections,
                phase.breaker_opens,
                phase.breaker_closes,
                expands,
                round(max_imbalance, 3) if records else "-",
            ]
        )

    # The run's `resilience.*` counters, read off the snapshot like any reporter.
    resilience = {
        name.partition(".")[2]: count
        for name, count in result.telemetry.counters.items()
        if name.startswith("resilience.")
    }
    require(
        EXPERIMENT_ID,
        {
            f"no incorrect read ({incorrect_total})": incorrect_total == 0,
            "some read degrades to storage": result.telemetry.degraded_reads > 0,
            f"no spurious expand ({spurious_expands})": spurious_expands == 0,
            f"no phantom epoch ({phantom_epochs})": phantom_epochs == 0,
            f"churn-phase I_c under {CHURN_IMBALANCE_LIMIT:g} "
            f"({churn_max_imbalance:.3f})": churn_max_imbalance < CHURN_IMBALANCE_LIMIT,
            "a breaker opens": bool(resilience.get("breaker_opens")),
        },
    )
    cache, tracker = client.converged_sizes()
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"Extension — chaos run (Zipf {THETA}, {num_servers} shards, "
            f"I_t={TARGET_IMBALANCE})"
        ),
        headers=[
            "phase", "event", "down", "reads", "hit_%", "degraded",
            "retries", "rejected", "opens", "closes", "expands", "max_I_c",
        ],
        rows=rows,
        notes=[
            f"{scale.accesses:,} verified reads over {scale.key_space:,} keys; "
            f"base epoch {base_epoch}; warm-up {warmup:,} then "
            f"{chaos_each:,} per chaos phase",
            f"retry: 2 attempts; breaker: opens after {FAILURE_THRESHOLD} "
            f"consecutive failures, cooldown {BREAKER_COOLDOWN:g} ops",
            "every read is checked against the storage value — "
            f"{incorrect_total} incorrect",
            "an EXPAND on a phantom I_c (>= "
            f"{PHANTOM_IMBALANCE:g}) while a shard is dead would indicate "
            "its zero-load entry polluting the controller (observed: "
            f"{spurious_expands}; worst churn-phase I_c "
            f"{churn_max_imbalance:.3f})",
        ],
        extras={
            "incorrect_reads": incorrect_total,
            "degraded_reads": result.telemetry.degraded_reads,
            "spurious_expands": spurious_expands,
            "phantom_epochs": phantom_epochs,
            "churn_max_imbalance": churn_max_imbalance,
            "post_warmup_expands": post_warmup_expands,
            "replacement_shard": replacement[0] if replacement else None,
            "final_cache": cache,
            "final_tracker": tracker,
            "resilience": resilience,
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "chaos schedule (kill/revive/replace/flaky shards) under elasticity",
    run,
    order=100,
)
