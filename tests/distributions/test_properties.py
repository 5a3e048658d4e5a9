"""Hypothesis property-based tests for the distribution library."""
from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributions import (
    Convolution,
    Deterministic,
    Erlang,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    Weibull,
)
from repro.laplace import EulerInverter

rates = st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False)
shapes = st.integers(min_value=1, max_value=8)
delays = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
s_real = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
s_imag = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def simple_dists():
    return st.one_of(
        rates.map(Exponential),
        st.tuples(rates, shapes).map(lambda t: Erlang(*t)),
        delays.map(Deterministic),
        st.tuples(delays, st.floats(min_value=0.1, max_value=10.0)).map(
            lambda t: Uniform(t[0], t[0] + t[1])
        ),
    )


@given(dist=simple_dists(), re=s_real, im=s_imag)
@settings(max_examples=120, deadline=None)
def test_lst_bounded_and_conjugate_symmetric(dist, re, im):
    """|L(s)| <= 1 on Re(s) >= 0, and L(conj s) = conj L(s)."""
    s = complex(re, im)
    val = dist.lst(s)
    assert abs(val) <= 1.0 + 1e-9
    assert np.isclose(dist.lst(np.conj(s)), np.conj(val), rtol=1e-9, atol=1e-12)


@given(dist=simple_dists())
@settings(max_examples=60, deadline=None)
def test_lst_at_zero_is_unity(dist):
    assert abs(dist.lst(0.0) - 1.0) < 1e-9


@given(dist=simple_dists(), re=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_lst_monotone_decreasing_on_real_axis(dist, re):
    """On the positive real axis the transform is completely monotone."""
    assert dist.lst(re).real <= dist.lst(re / 2.0).real + 1e-12


@given(a=simple_dists(), b=simple_dists(), w=st.floats(min_value=0.0, max_value=1.0), re=s_real, im=s_imag)
@settings(max_examples=80, deadline=None)
def test_mixture_interpolates(a, b, w, re, im):
    s = complex(re, im)
    mix = Mixture([a, b], [w, 1.0 - w]) if 0 < w < 1 else None
    if mix is None:
        return
    expected = w * a.lst(s) + (1.0 - w) * b.lst(s)
    assert np.isclose(mix.lst(s), expected, rtol=1e-9, atol=1e-12)


@given(a=simple_dists(), b=simple_dists(), re=s_real, im=s_imag)
@settings(max_examples=80, deadline=None)
def test_convolution_transform_is_product(a, b, re, im):
    s = complex(re, im)
    conv = Convolution([a, b])
    assert np.isclose(conv.lst(s), a.lst(s) * b.lst(s), rtol=1e-9, atol=1e-12)


@given(dist=simple_dists(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_samples_non_negative(dist, seed):
    rng = np.random.default_rng(seed)
    samples = np.asarray(dist.sample(rng, size=50), dtype=float)
    assert np.all(samples >= 0.0)


# --- numeric transforms: a point's value is a function of that point alone --
_NUMERIC_GRID = np.asarray(
    EulerInverter().required_s_points(np.asarray([2.0, 9.0, 40.0])), dtype=complex
)
_NUMERIC_FAMILIES = {
    "weibull": Weibull(1.3, 1.0),
    "lognormal": LogNormal(0.1, 0.4),
    "pareto": Pareto(3.0, 1.0),
}


@functools.cache
def _numeric_full(family: str) -> np.ndarray:
    return _NUMERIC_FAMILIES[family].lst_batch(_NUMERIC_GRID)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(_NUMERIC_FAMILIES)),
    picks=st.lists(
        st.integers(min_value=0, max_value=_NUMERIC_GRID.size - 1),
        min_size=1, max_size=_NUMERIC_GRID.size, unique=True,
    ),
)
def test_numeric_lst_of_a_point_is_independent_of_its_batch(family, picks):
    """Any subset of the grid, in any order, gives each point the same bits
    as the whole grid does (Weibull, log-normal and Pareto have no closed
    form: their transform is a quadrature, reduced row by row)."""
    assert _NUMERIC_GRID.size == 99
    picks = np.asarray(picks)
    full = _numeric_full(family)
    values = _NUMERIC_FAMILIES[family].lst_batch(_NUMERIC_GRID[picks])
    assert values.view(float).tobytes() == full[picks].view(float).tobytes()
