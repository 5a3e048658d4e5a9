"""Tests for the constant-space sampled-transform representation and moment recovery."""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    Erlang,
    Exponential,
    Mixture,
    SampledTransform,
    Uniform,
    sample_transform,
)
from repro.laplace import EulerInverter
from tests.reference import lst_moments, mean_from_lst, variance_from_lst


@pytest.fixture
def s_grid():
    return EulerInverter().required_s_points([1.0, 2.0])


class TestSampledTransform:
    def test_values_match_source_distribution(self, s_grid):
        d = Erlang(2.0, 3)
        st = sample_transform(d, s_grid)
        for s in s_grid[:5]:
            assert st.value_at(s) == pytest.approx(d.lst(s))

    def test_storage_is_constant_under_composition(self, s_grid):
        a = sample_transform(Exponential(1.0), s_grid)
        b = sample_transform(Uniform(0.5, 1.5), s_grid)
        composed = (a * b).mix(a, 0.25).convolve(b)
        assert composed.storage_size == a.storage_size
        assert composed.storage_size == len(set(np.round(s_grid, 12)))

    def test_product_is_convolution(self, s_grid):
        a, b = Exponential(1.0), Exponential(3.0)
        st = sample_transform(a, s_grid) * sample_transform(b, s_grid)
        for s in s_grid[:4]:
            assert st.value_at(s) == pytest.approx(a.lst(s) * b.lst(s))
        assert st.mean() == pytest.approx(a.mean() + b.mean())

    def test_mix_matches_mixture(self, s_grid):
        a, b = Exponential(1.0), Erlang(2.0, 2)
        st = sample_transform(a, s_grid).mix(sample_transform(b, s_grid), 0.3)
        mix = Mixture([a, b], [0.3, 0.7])
        for s in s_grid[:4]:
            assert st.value_at(s) == pytest.approx(mix.lst(s))

    def test_inversion_from_sampled_values_matches_direct(self):
        inv = EulerInverter()
        ts = [0.5, 1.0, 2.0]
        d = Erlang(1.5, 4)
        grid = inv.required_s_points(ts)
        st = sample_transform(d, grid)
        direct = inv.invert(d.lst, ts)
        via_sampled = inv.invert(st.lst, ts)
        assert np.allclose(direct, via_sampled)

    def test_missing_s_point_raises(self, s_grid):
        st = sample_transform(Exponential(1.0), s_grid)
        with pytest.raises(KeyError):
            st.value_at(123.456 + 789j)

    def test_cannot_sample(self, s_grid, rng):
        st = sample_transform(Exponential(1.0), s_grid)
        with pytest.raises(NotImplementedError):
            st.sample(rng)

    def test_requires_common_grid(self):
        a = SampledTransform({1.0 + 0j: 0.5})
        b = SampledTransform({2.0 + 0j: 0.25})
        with pytest.raises(ValueError):
            _ = a * b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampledTransform({})


class TestMomentsFromTransform:
    """The distributions' closed-form moments against their own transforms,
    differentiated numerically by the oracle of ``tests.reference``."""

    @pytest.mark.parametrize(
        "dist",
        [Exponential(2.0), Erlang(1.5, 3), Uniform(1.0, 4.0)],
        ids=lambda d: repr(d),
    )
    def test_mean_recovered(self, dist):
        est = mean_from_lst(dist.lst, scale=dist.mean())
        assert est == pytest.approx(dist.mean(), rel=1e-4)

    @pytest.mark.parametrize(
        "dist",
        [Exponential(1.0), Erlang(2.0, 4)],
        ids=lambda d: repr(d),
    )
    def test_variance_recovered(self, dist):
        est = variance_from_lst(dist.lst, scale=dist.mean())
        assert est == pytest.approx(dist.variance(), rel=5e-3)

    def test_zeroth_moment_is_one(self):
        m = lst_moments(Exponential(3.0).lst, 0)
        assert m[0] == pytest.approx(1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            lst_moments(Exponential(1.0).lst, -1)
