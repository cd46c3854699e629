"""Figure 5: end-to-end running time with 20 closed-loop clients.

Paper setup: 1M lookups issued by 20 client threads against 8 shards,
RTT 244 µs; workloads uniform / Zipf 0.99 / Zipf 1.2; each policy gets
512 cache-lines, tracker (history) ratio 8:1 for Zipf 0.99 and 4:1 for
Zipf 1.2 and uniform; 10 repetitions, mean ± 95% CI.

Shapes to reproduce (absolute times are simulated, not testbed seconds):

* with **no front-end cache**, skew is catastrophic under thrashing —
  Zipf 0.99 / 1.2 run 8.9× / 12.27× longer than uniform;
* a 512-line CoT cache cuts runtime by ~70% (0.99) / ~88% (1.2); other
  policies land between 52-67% / 80-88%, with LRU-2 second behind CoT;
* on **uniform**, front-end caches cost nothing measurable — the heap
  bookkeeping is noise against the network round trip.
"""

from __future__ import annotations

from repro.engine import (
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.engine.parallel import map_specs
from repro.engine.registry import register_experiment
from repro.experiments.common import (
    CLAIM_SCALES,
    ExperimentResult,
    Scale,
    TRACKER_RATIOS,
    mean_confidence,
    require,
)
from repro.policies.registry import POLICY_NAMES

__all__ = ["run", "EXPERIMENT_ID", "DISTS", "CACHE_LINES"]

EXPERIMENT_ID = "fig5"
DISTS = ("uniform", "zipf-0.99", "zipf-1.2")
#: Paper: every policy is configured with 512 cache-lines.
CACHE_LINES = 512
ALL_CONFIGS = ("none", *POLICY_NAMES)


def build_spec(
    dist: str,
    policy_name: str,
    scale: Scale,
    repetition: int,
    num_clients: int | None = None,
    requests_per_client: int | None = None,
) -> ScenarioSpec:
    """The spec of one simulated repetition (seed = base + 10k × rep)."""
    clients = num_clients if num_clients is not None else scale.num_clients
    per_client = (
        requests_per_client
        if requests_per_client is not None
        else max(1, scale.accesses // (clients * 4))
    )
    ratio = TRACKER_RATIOS.get(dist, 4)
    base_seed = scale.seed + repetition * 10_000

    if policy_name == "none":
        policy = PolicySpec()
    else:
        policy = PolicySpec(
            name=policy_name,
            cache_lines=CACHE_LINES,
            tracker_lines=ratio * CACHE_LINES,
        )
    return ScenarioSpec(
        scale=scale,
        workload=WorkloadSpec(dist=dist),
        policy=policy,
        topology=TopologySpec(num_clients=clients),
        seed=base_seed,
        requests_per_client=per_client,
    )


def run(
    scale: Scale | None = None,
    repetitions: int = 3,
    num_clients: int | None = None,
    requests_per_client: int | None = None,
) -> ExperimentResult:
    """Regenerate Figure 5: rows = configs, columns = distributions."""
    scale = scale or Scale.default()
    # Every (config × dist × repetition) simulation is independent (each
    # repetition re-seeds explicitly); fan the whole grid at once.
    specs = [
        build_spec(
            dist,
            policy_name,
            scale,
            rep,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
        )
        for policy_name in ALL_CONFIGS
        for dist in DISTS
        for rep in range(repetitions)
    ]
    snapshots = iter(map_specs("sim", specs))
    rows: list[list[object]] = []
    uniform_nocache: float | None = None
    for policy_name in ALL_CONFIGS:
        row: list[object] = [policy_name]
        for dist in DISTS:
            runtimes = [next(snapshots).runtime for _ in range(repetitions)]
            mean, ci = mean_confidence(runtimes)
            if policy_name == "none" and dist == "uniform":
                uniform_nocache = mean
            row.append(f"{mean:.3f}±{ci:.3f}")
        rows.append(row)

    notes = [
        f"simulated seconds (RTT 244 µs, FCFS shards with thrashing); "
        f"{repetitions} repetitions, mean ± 95% CI; {CACHE_LINES} "
        "cache-lines per policy",
        "paper shapes: no-cache zipf-0.99/1.2 ≈ 8.9×/12.27× uniform; CoT "
        "cuts runtime ~70%/88%; uniform shows no cache overhead",
    ]
    if uniform_nocache:
        notes.append(f"uniform no-cache baseline: {uniform_nocache:.3f}s")
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Figure 5 — end-to-end running time (20 closed-loop clients)",
        headers=["policy", *DISTS],
        rows=rows,
        notes=notes,
        extras={"scale": scale.name, "repetitions": repetitions},
    )
    if scale.name in CLAIM_SCALES:
        _check(result)
    return result


def mean_runtimes(result: ExperimentResult) -> dict[str, list[float]]:
    """Each config's mean runtimes, in :data:`DISTS` order, off its cells."""
    return {
        row[0]: [float(cell.split("±")[0]) for cell in row[1:]] for row in result.rows
    }


def _check(result: ExperimentResult) -> None:
    runtimes = mean_runtimes(result)
    none_uniform, none_z99, none_z12 = runtimes["none"]
    cot_uniform, _, cot_z12 = runtimes["cot"]
    require(
        EXPERIMENT_ID,
        {
            f"no-cache runtime rises with skew ({none_uniform} < {none_z99} < "
            f"{none_z12})": none_uniform < none_z99 < none_z12,
            f"CoT at least halves zipf-1.2's runtime ({cot_z12} vs {none_z12})": (
                cot_z12 < 0.5 * none_z12
            ),
            f"CoT costs uniform under 5% ({cot_uniform} vs {none_uniform})": (
                cot_uniform < 1.05 * none_uniform
            ),
        },
    )


register_experiment(
    EXPERIMENT_ID,
    "end-to-end running time, 20 closed-loop clients over 8 shards",
    run,
    order=40,
)
