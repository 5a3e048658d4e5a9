"""Tests for the canonical s-point rounding shared by caches and inverters."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.laplace import EulerInverter, LaguerreInverter
from repro.laplace.inverter import canonical_keys, canonical_s


class TestCanonicalS:
    def test_idempotent(self):
        s = 1.234567890123456 + 9.87654321e-3j
        assert canonical_s(canonical_s(s)) == canonical_s(s)

    def test_merges_last_bit_differences(self):
        a = (0.1 + 0.2) + 1.0j          # 0.30000000000000004
        b = 0.3 + 1.0j
        assert canonical_s(a) == canonical_s(b)

    def test_conjugate_pairs_collapse_consistently(self):
        # A Laguerre contour point and the conjugate of its mirror image.
        z1 = 0.955 * np.exp(2j * np.pi * 10 / 64)
        z2 = 0.955 * np.exp(2j * np.pi * 54 / 64)
        s1 = (1 + z1) / (2 * (1 - z1))
        s2 = np.conj((1 + z2) / (2 * (1 - z2)))
        assert canonical_s(complex(s1)) == canonical_s(complex(s2))

    def test_distinct_grid_points_not_merged(self):
        from repro.laplace import euler_s_points

        pts = euler_s_points(3.7)
        canonical = {canonical_s(s) for s in pts}
        assert len(canonical) == len(pts)

    def test_scales_with_magnitude(self):
        big = 1.23456789012e6 + 2.0j
        assert canonical_s(big + 1e-4) == canonical_s(big)
        small = 1.23456789012e-6 + 2.0e-6j
        assert canonical_s(small) != canonical_s(small * (1 + 1e-3))

    def test_zero_and_nonfinite_passthrough(self):
        assert canonical_s(0j) == 0j
        assert np.isnan(canonical_s(complex(np.nan, 1.0)).real)


# ---------------------------------------------------------------------------
# The vectorised form must equal the scalar reference bit for bit: cache keys
# and checkpoint files written through one are read back through the other.
# ---------------------------------------------------------------------------

def _bits(values) -> list[tuple[bytes, bytes]]:
    """Bit patterns of the parts, so -0.0 != 0.0 and NaN == NaN."""
    return [(struct.pack("<d", v.real), struct.pack("<d", v.imag)) for v in values]


def _assert_matches_scalar(points, sig=10):
    try:
        expected = [canonical_s(s, sig) for s in points]
    except ValueError:  # round(nan): a NaN imaginary part beside a finite real one
        with pytest.raises(ValueError):
            canonical_keys(points, sig)
        return
    got = canonical_keys(points, sig)
    assert all(type(key) is complex for key in got)
    assert _bits(got) == _bits(expected)


_magnitudes = st.floats(min_value=1e-12, max_value=1e12)
_parts = st.one_of(
    _magnitudes,
    _magnitudes.map(lambda x: -x),
    st.integers(min_value=-12, max_value=12).map(lambda e: 10.0 ** e),
    st.integers(min_value=-12, max_value=12).map(lambda e: -(10.0 ** e)),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    # half-way cases of the rounding at 10 significant digits
    st.integers(min_value=0, max_value=10**10).map(lambda k: (k + 0.5) / 1e10),
)
_points = st.builds(complex, _parts, _parts)


class TestCanonicalKeys:
    @given(points=st.lists(_points, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_bitwise(self, points):
        _assert_matches_scalar(points)

    @given(point=_points, sig=st.integers(min_value=1, max_value=15))
    @settings(max_examples=100, deadline=None)
    def test_equals_scalar_at_other_precisions(self, point, sig):
        _assert_matches_scalar([point], sig)

    @pytest.mark.parametrize("inverter", [
        EulerInverter(), EulerInverter(a=23.0, n_terms=30, euler_order=9),
        LaguerreInverter(), LaguerreInverter(n_points=64, damping=0.4, time_scale=7.0),
    ], ids=["euler", "euler-custom", "laguerre-400", "laguerre-modified"])
    def test_equals_scalar_on_every_grid_point(self, inverter):
        grid = inverter.required_s_points([1e-3, 0.37, 15.0, 27.0, 60.0, 6.4e2, 1e5])
        _assert_matches_scalar(grid.tolist())
        _assert_matches_scalar(np.conj(grid).tolist())

    def test_accepts_arrays_and_empty_input(self):
        assert canonical_keys([]) == []
        grid = np.array([[1 + 2j, 3 - 4j]])
        assert canonical_keys(grid) == [canonical_s(1 + 2j), canonical_s(3 - 4j)]

    def test_nan_imaginary_part_raises_like_the_scalar(self):
        with pytest.raises(ValueError):
            canonical_s(complex(1.0, np.nan))
        with pytest.raises(ValueError):
            canonical_keys([1 + 1j, complex(1.0, np.nan)])
