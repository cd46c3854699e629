"""Harnesses that regenerate every table and figure of the paper's
evaluation (Section 5 + appendix), one module per artifact. Importing
this package imports every experiment module, which registers each one
in the engine's spec registry (:mod:`repro.engine.registry`) — the CLI
(``python -m repro.experiments``) and the benches enumerate that registry
rather than a hand-maintained list. See DESIGN.md's per-experiment
index."""

from repro.experiments import (  # noqa: F401  (imported to register specs)
    appendix_tracker_size,
    extension_adaptive,
    extension_chaos,
    extension_decay,
    extension_distributions,
    extension_edge_rtt,
    extension_hotkey,
    extension_write,
    fig3_cache_size_sweep,
    fig4_hit_rates,
    fig5_end_to_end,
    fig6_single_client,
    fig78_adaptive_resizing,
    table2_min_cache,
    ycsb_bug,
)
from repro.experiments.common import ExperimentResult, Scale

__all__ = [
    "ExperimentResult",
    "Scale",
    "appendix_tracker_size",
    "extension_adaptive",
    "extension_chaos",
    "extension_decay",
    "extension_distributions",
    "extension_edge_rtt",
    "extension_hotkey",
    "extension_write",
    "fig3_cache_size_sweep",
    "fig4_hit_rates",
    "fig5_end_to_end",
    "fig6_single_client",
    "fig78_adaptive_resizing",
    "table2_min_cache",
    "ycsb_bug",
]
