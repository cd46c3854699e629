"""Tests for the extension experiments."""

from __future__ import annotations

from repro.experiments import extension_decay, extension_edge_rtt
from repro.experiments.common import Scale


def tiny() -> Scale:
    return Scale("tiny", key_space=4_000, accesses=20_000,
                 num_clients=2, num_servers=4)


class TestExtensionExperiments:
    def test_decay_extension_helps_rotating_trends(self):
        result = extension_decay.run(tiny(), rotations=3)
        rates = dict(zip(result.column("decay"), result.column("hit_rate_%")))
        assert rates["half_life"] >= rates["none"] - 0.5
        assert len(result.rows) == 3

    def test_edge_rtt_absolute_gain_grows(self):
        result = extension_edge_rtt.run(tiny())
        savings = result.column("absolute_saving_s")
        assert savings == sorted(savings)
        reductions = result.column("reduction_%")
        assert all(r > 0 for r in reductions)

    def test_distributions_extension_shapes(self):
        from repro.experiments import extension_distributions

        result = extension_distributions.run(tiny(), cache_lines=32)
        rows = {row[0]: row for row in result.rows}
        headers = result.headers
        cot_idx = headers.index("cot")
        lru_idx = headers.index("lru")
        decay_idx = headers.index("cot+decay")
        # Gaussian concentration: the tracker filter wins clearly.
        assert rows["gaussian"][cot_idx] > rows["gaussian"][lru_idx]
        # Drifting recency: decay recovers (most of) the gap CoT loses.
        assert rows["latest"][decay_idx] > rows["latest"][cot_idx]

    def test_extensions_reachable_from_cli(self):
        import repro.experiments  # noqa: F401  (registers the catalog)
        from repro.engine import experiment_ids

        ids = experiment_ids()
        assert "ext-chaos" in ids
        assert "ext-decay" in ids
        assert "ext-edge-rtt" in ids
        assert "ext-dists" in ids
