"""Tests of the top-level public API surface."""
from __future__ import annotations

import tomllib
from pathlib import Path

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_pyproject_agrees_with_the_package(self):
        """One version — what ``/v1/stats`` reports is what the metadata says —
        and dependency floors as high as the calls the code makes (SciPy 1.13:
        the first release built against NumPy 2)."""
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["version"] == repro.__version__
        assert project["dependencies"] == ["numpy>=2.0", "scipy>=1.13"]

    def test_subpackage_exports_resolve(self):
        import repro.core
        import repro.distributions
        import repro.smp

        for package in (repro.core, repro.distributions, repro.smp):
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_the_scalar_cone_is_not_exported(self):
        """A single s-point is ``job.evaluate_many([s])`` / ``solver.transform(s)``
        and the moments are ``solver.moments()``; the one-point-at-a-time
        functions are oracles in ``tests/reference``."""
        import repro.distributions
        import repro.smp

        for name in (
            "passage_transform", "passage_transform_vector", "passage_transform_direct",
            "transient_transform", "sojourn_lsts",
        ):
            assert not hasattr(repro.smp, name), name
        for name in ("lst_moments", "mean_from_lst", "variance_from_lst"):
            assert not hasattr(repro.distributions, name), name
        assert not hasattr(repro.PassageTimeJob, "evaluate")
        assert "passage_moments" in repro.smp.__all__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_quickstart_works(self):
        from repro import PassageTimeSolver, SMPBuilder
        from repro.distributions import Erlang, Uniform

        builder = SMPBuilder()
        builder.add_transition("working", "broken", 1.0, Erlang(2.0, 3))
        builder.add_transition("broken", "working", 1.0, Uniform(1.0, 2.0))
        kernel = builder.build()
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        density = solver.density(np.linspace(0.1, 6.0, 10))
        assert np.all(density >= -1e-9)
        p99 = solver.quantile(0.99, 0.1, 20.0)
        assert Erlang(2.0, 3).cdf(p99) == pytest.approx(0.99, abs=1e-4)

    def test_subpackages_importable(self):
        import repro.core
        import repro.distributed
        import repro.distributions
        import repro.dnamaca
        import repro.laplace
        import repro.models
        import repro.partition
        import repro.petri
        import repro.simulation
        import repro.smp
        import repro.utils

        assert repro.core and repro.utils
