"""The scenario engine: one pipeline for every execution substrate.

Layering (see DESIGN.md §8)::

    ScenarioSpec  ──▶  Runner  ──▶  TelemetrySnapshot  ──▶  reporters
    (declarative       (PolicyStream / (frozen counters,     (experiment
     what-to-run)       Cluster / Sim)  gauges, epochs)      render())

Experiment modules build :class:`ScenarioSpec`s and register themselves
in the spec registry; the CLI, benches and CI smoke stage enumerate the
registry instead of hand-maintained lists.

The parallel fabric (:mod:`repro.engine.parallel`, DESIGN.md §10) slots
between specs and runners: :func:`map_specs`/:func:`map_calls` fan
independent tasks across a spawned worker pool and merge results back in
spec order, with outputs byte-identical at every worker count.
"""

from repro.engine.parallel import (
    configure,
    configured_workers,
    default_workers,
    derive_seeds,
    map_calls,
    map_specs,
    parallel_workers,
    spawn_seed,
)
from repro.engine.registry import (
    RegisteredExperiment,
    experiment_ids,
    get_experiment,
    register_experiment,
)
from repro.engine.runners import (
    STREAM_CHUNK,
    ClusterRunner,
    PolicyStreamRunner,
    Runner,
    ScenarioResult,
    SimRunner,
)
from repro.engine.spec import (
    ArbitrationSpec,
    Phase,
    PolicySpec,
    RunContext,
    Scale,
    ScenarioSpec,
    StreamHooks,
    TopologySpec,
    WorkloadSpec,
    WriteSpec,
    make_generator,
    spawn_safe,
)
from repro.engine.telemetry import PhaseTelemetry, TelemetrySnapshot

__all__ = [
    "STREAM_CHUNK",
    "ArbitrationSpec",
    "ClusterRunner",
    "Phase",
    "PhaseTelemetry",
    "PolicySpec",
    "PolicyStreamRunner",
    "RegisteredExperiment",
    "RunContext",
    "Runner",
    "Scale",
    "ScenarioResult",
    "ScenarioSpec",
    "SimRunner",
    "StreamHooks",
    "TelemetrySnapshot",
    "TopologySpec",
    "WorkloadSpec",
    "WriteSpec",
    "configure",
    "configured_workers",
    "default_workers",
    "derive_seeds",
    "experiment_ids",
    "get_experiment",
    "make_generator",
    "map_calls",
    "map_specs",
    "parallel_workers",
    "register_experiment",
    "spawn_safe",
    "spawn_seed",
]
