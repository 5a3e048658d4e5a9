"""Tests for the shared inverter factory and conjugate-pair helpers."""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential
from repro.laplace import (
    EulerInverter,
    LaguerreInverter,
    conjugate_reduced,
    expand_conjugates,
    get_inverter,
    invert_cdf,
    invert_density,
)


class TestFactory:
    def test_get_inverter_by_name(self):
        assert isinstance(get_inverter("euler"), EulerInverter)
        assert isinstance(get_inverter("laguerre"), LaguerreInverter)
        assert isinstance(get_inverter("EULER"), EulerInverter)

    def test_options_forwarded(self):
        inv = get_inverter("euler", n_terms=30, euler_order=9)
        assert inv.n_terms == 30 and inv.euler_order == 9
        inv2 = get_inverter("laguerre", n_points=64)
        assert inv2.n_points == 64

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            get_inverter("talbot")

    def test_unknown_option_names_the_typo_and_the_valid_set(self):
        with pytest.raises(ValueError) as err:
            get_inverter("euler", eular_terms=30)
        message = str(err.value)
        assert "eular_terms" in message
        assert "n_terms" in message and "euler_order" in message and "a" in message

    def test_unknown_option_laguerre(self):
        with pytest.raises(ValueError) as err:
            get_inverter("laguerre", n_pionts=64, radius=0.9)
        assert "n_pionts" in str(err.value)
        assert "n_points" in str(err.value)

    def test_multiple_unknown_options_all_reported(self):
        with pytest.raises(ValueError) as err:
            get_inverter("euler", bogus=1, wrong=2)
        assert "bogus" in str(err.value) and "wrong" in str(err.value)

    def test_option_names_are_inspected_once_per_class(self, monkeypatch):
        from repro.laplace import inverter as inverter_module

        get_inverter("euler"), get_inverter("laguerre")  # whatever ran before: warm
        calls = []
        real = inverter_module.inspect.signature
        monkeypatch.setattr(
            inverter_module.inspect, "signature",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        assert get_inverter("euler", n_terms=25).n_terms == 25
        assert get_inverter("LAGUERRE", n_points=64).n_points == 64
        # the warm path still validates: a typo names itself and the valid set
        with pytest.raises(ValueError, match=r"eular_terms.*valid options: a, n_terms, euler_order"):
            get_inverter("euler", eular_terms=30)
        with pytest.raises(ValueError, match="talbot"):
            get_inverter("talbot")
        assert calls == []

    def test_invert_values_takes_a_mapping_or_aligned_values(self):
        d = Erlang(2.0, 2)
        for inv in (EulerInverter(), LaguerreInverter(n_points=64)):
            ts = [0.5, 1.5]
            grid = inv.required_s_points(ts)
            aligned = d.lst(grid)
            mapping = {complex(s): complex(v) for s, v in zip(grid, aligned)}
            assert np.array_equal(
                inv.invert_values(ts, mapping), inv.invert_values(ts, aligned)
            )
            assert np.array_equal(
                inv.invert_values(ts, aligned), inv.invert_values(ts, list(aligned))
            )
            with pytest.raises(KeyError, match="missing transform value"):
                inv.invert_values(ts, dict(list(mapping.items())[1:]))

    def test_module_level_helpers(self, t_grid):
        d = Exponential(1.0)
        assert np.allclose(invert_density(d.lst, t_grid), d.pdf(t_grid), atol=1e-6)
        assert np.allclose(invert_cdf(d.lst, t_grid), d.cdf(t_grid), atol=1e-6)


class TestConjugateReduction:
    def test_reduction_folds_lower_half_plane(self):
        pts = np.array([1 + 2j, 1 - 2j, 3 + 0j, 2 - 5j])
        reduced = conjugate_reduced(pts)
        assert np.all(reduced.imag >= 0)
        assert len(reduced) == 3  # 1+2j (twice), 3, 2+5j

    def test_expansion_restores_conjugates(self):
        d = Erlang(2.0, 2)
        pts = np.array([0.5 + 1j, 0.5 - 1j, 2.0 + 0j])
        reduced = conjugate_reduced(pts)
        values = {complex(s): complex(d.lst(s)) for s in reduced}
        expanded = expand_conjugates(values)
        for s in pts:
            assert expanded[complex(s)] == pytest.approx(d.lst(s))

    def test_laguerre_grid_halves_under_reduction(self):
        pts = LaguerreInverter(n_points=64).required_s_points([1.0])
        reduced = conjugate_reduced(pts)
        # 64 contour points -> 33 after folding (j=0 and j=32 are real).
        assert len(reduced) == 33

    def test_inversion_with_reduced_evaluations_matches(self):
        """Evaluate only the reduced set, expand, invert: same answer."""
        d = Erlang(1.0, 3)
        inv = LaguerreInverter(n_points=128)
        ts = [0.5, 1.5, 4.0]
        full = inv.required_s_points(ts)
        reduced = conjugate_reduced(full)
        values = {complex(s): complex(d.lst(s)) for s in reduced}
        recovered = inv.invert_values(ts, expand_conjugates(values))
        assert np.allclose(recovered, d.pdf(ts), atol=1e-5)
