"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    CapacityError,
    ClusterError,
    ConfigurationError,
    ExperimentError,
    KeyNotTrackedError,
    ReproError,
    SimulationError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            CapacityError,
            KeyNotTrackedError,
            ClusterError,
            SimulationError,
            ExperimentError,
        ):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)
        with pytest.raises(ValueError):
            raise ConfigurationError("bad")

    def test_key_not_tracked_is_key_error(self):
        assert issubclass(KeyNotTrackedError, KeyError)

    def test_one_catch_all(self):
        with pytest.raises(ReproError):
            raise ClusterError("down")


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_docstring_flow(self):
        """The README/package-docstring quickstart must actually work."""
        from repro import CoTCache, MISSING, ZipfianGenerator

        cache = CoTCache(capacity=8, tracker_capacity=32)
        workload = ZipfianGenerator(key_space=10_000, theta=0.99, seed=7)
        for key in workload.keys(50_000):
            if cache.lookup(key) is MISSING:
                cache.admit(key, f"value-{key}")
        assert cache.stats.hit_rate > 0.2

    def test_lazy_elastic_import(self):
        import repro.core

        assert repro.core.ElasticCoTClient is not None
        with pytest.raises(AttributeError):
            repro.core.DoesNotExist


def test_lint_names_a_module_only_tests_reach(tmp_path):
    """``scripts/lint_unused.py``'s reachability pass, on a scratch tree."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.inner import Helper\n"
            "from repro.pkg.spare import Spare\n"
        ),
        "src/repro/pkg/inner.py": "class Helper: pass\n",
        "src/repro/pkg/spare.py": "class Spare: pass\n",
        "src/repro/used.py": "from repro.pkg import Helper\n",
        "src/repro/testonly.py": "X = 1\n",
        "examples/run.py": "import repro.used\n",
        "tests/test_it.py": "from repro.testonly import X\nfrom repro.pkg import Spare\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    lint = Path(__file__).resolve().parents[1] / "scripts" / "lint_unused.py"
    result = subprocess.run(
        [sys.executable, str(lint)], cwd=tmp_path, capture_output=True, text=True
    )
    reported = {line.split(":")[0] for line in result.stdout.splitlines()}
    # inner.py is reached through the package re-export into used.py; the
    # same __init__ importing spare.py does not make spare.py reached.
    assert result.returncode == 1
    assert reported == {"src/repro/testonly.py", "src/repro/pkg/spare.py"}
