"""Common interface shared by the Euler and Laguerre inversion algorithms."""
from __future__ import annotations

import abc
import functools
import inspect
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Inverter",
    "get_inverter",
    "invert_density",
    "invert_cdf",
    "conjugate_reduced",
    "fold_conjugates",
    "expand_conjugates",
    "expand_to_grid",
    "canonical_s",
    "canonical_keys",
]


def canonical_s(s: complex, sig: int = 10) -> complex:
    """Round an s-point to ``sig`` significant digits (per component scale).

    Different code paths can produce the *same* mathematical s-point with
    last-bit floating-point differences (e.g. a contour point and the
    conjugate of its mirror image).  All dictionary lookups keyed by s-points
    — inverter value maps, the distributed result cache, checkpoint files —
    go through this canonicalisation so those representations collide as
    intended.  Grid points of the supported inversion algorithms are separated
    by far more than ``10^-sig`` of their magnitude, so no distinct points are
    merged.
    """
    s = complex(s)
    magnitude = max(abs(s.real), abs(s.imag))
    if magnitude == 0.0 or not np.isfinite(magnitude):
        return s
    scale = 10.0 ** (sig - int(np.ceil(np.log10(magnitude))))
    return complex(round(s.real * scale) / scale, round(s.imag * scale) / scale)


#: ``10.0 ** e`` for every exponent a finite double's scale can take, computed
#: with the same Python-float power :func:`canonical_s` uses (a vectorised
#: ``np.power`` may differ from it in the last bit)
_POW10_MIN = -299
_POW10 = np.array([10.0 ** e for e in range(_POW10_MIN, 309)])


def canonical_keys(s_points, sig: int = 10) -> list[complex]:
    """``[canonical_s(s, sig) for s in s_points]`` in one vectorised pass.

    Bit-for-bit equal to the scalar function (which stays the reference the
    property tests compare against), including its pass-through of zero and
    non-finite magnitudes and its ``ValueError`` on a NaN imaginary part.
    """
    s = np.asarray(s_points, dtype=complex).ravel()
    re, im = s.real, s.imag
    abs_re, abs_im = np.abs(re), np.abs(im)
    # Python's max(a, b) — b only if b > a — so NaN parts order as they do there.
    magnitude = np.where(abs_im > abs_re, abs_im, abs_re)
    unchanged = (magnitude == 0.0) | ~np.isfinite(magnitude)
    if np.isnan(im[~unchanged]).any():
        raise ValueError("cannot convert float NaN to integer")
    exponent = sig - np.ceil(np.log10(np.where(unchanged, 1.0, magnitude))).astype(np.int64)
    scale = _POW10[exponent - _POW10_MIN]
    # "+ 0.0" turns rint's -0.0 into the +0.0 that round()'s integer gives.
    out = np.empty_like(s)
    out.real = (np.rint(re * scale) + 0.0) / scale
    out.imag = (np.rint(im * scale) + 0.0) / scale
    return np.where(unchanged, s, out).tolist()


class Inverter(abc.ABC):
    """Abstract numerical Laplace-transform inverter.

    The protocol mirrors the structure of the paper's distributed pipeline:
    the master asks the inverter for the s-points it will need
    (:meth:`required_s_points`), farms those evaluations out to workers, and
    finally calls :meth:`invert_values` with the gathered results.
    """

    #: short identifier ("euler" / "laguerre") used in configuration and caches
    name: str = "abstract"

    @abc.abstractmethod
    def required_s_points(self, t_points: Iterable[float]) -> np.ndarray:
        """Complex s-points at which the transform must be evaluated."""

    def invert_values(
        self,
        t_points: Iterable[float],
        values: Mapping[complex, complex] | Sequence[complex],
    ) -> np.ndarray:
        """Assemble ``f(t)`` for each ``t`` from pre-computed transform values.

        ``values`` is a ``{s: L(s)}`` mapping, looked up by canonical s, or —
        what a :class:`~repro.api.plan.QueryPlan` produces, skipping the
        lookup — a sequence aligned with ``required_s_points(t_points)``.
        """
        t_points = np.asarray(list(t_points), dtype=float)
        if isinstance(values, Mapping):
            lookup = dict(zip(canonical_keys(list(values)), values.values()))
            try:
                values = [
                    lookup[key] for key in canonical_keys(self.required_s_points(t_points))
                ]
            except KeyError as exc:
                raise KeyError(
                    f"missing transform value for s-point {exc.args[0]!r}"
                ) from None
        return self._invert_aligned(t_points, np.asarray(values, dtype=complex))

    @abc.abstractmethod
    def _invert_aligned(self, t_points: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``f(t)`` from values in ``required_s_points(t_points)`` order."""

    # ------------------------------------------------------------ helpers
    def invert(
        self, transform: Callable[[np.ndarray], np.ndarray], t_points: Iterable[float]
    ) -> np.ndarray:
        """Convenience: evaluate ``transform`` directly and invert.

        ``transform`` must be vectorised over an ndarray of complex s.
        """
        t_points = np.asarray(list(t_points), dtype=float)
        s_points = self.required_s_points(t_points)
        values = np.asarray(transform(s_points), dtype=complex)
        return self._invert_aligned(t_points, values)

    def invert_cdf(
        self, transform: Callable[[np.ndarray], np.ndarray], t_points: Iterable[float]
    ) -> np.ndarray:
        """Invert the *cumulative* distribution via ``L(s) / s`` (paper §5.3.1)."""
        return self.invert(lambda s: np.asarray(transform(s), dtype=complex) / s, t_points)


def get_inverter(method: str = "euler", **options) -> Inverter:
    """Factory returning an inverter by name (``"euler"`` or ``"laguerre"``).

    Keyword options are checked against the selected inverter's constructor
    signature, so a typo (``eular_terms=...``) raises a :class:`ValueError`
    naming the bad option and the valid set instead of being dropped or
    surfacing as an opaque ``TypeError`` deep in the pipeline.
    """
    method = str(method).lower()
    cls, valid = _inverter_class(method)
    unknown = sorted(set(options) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown option{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(o) for o in unknown)} for the {method!r} inverter; "
            f"valid options: {', '.join(valid)}"
        )
    return cls(**options)


@functools.cache
def _inverter_class(method: str) -> tuple[type[Inverter], tuple[str, ...]]:
    """The inverter class for ``method`` and its constructor's option names."""
    from .euler import EulerInverter
    from .laguerre import LaguerreInverter

    cls = {"euler": EulerInverter, "laguerre": LaguerreInverter}.get(method)
    if cls is None:
        raise ValueError(
            f"unknown inversion method {method!r}; expected 'euler' or 'laguerre'"
        )
    valid = tuple(n for n in inspect.signature(cls.__init__).parameters if n != "self")
    return cls, valid


def invert_density(
    transform: Callable[[np.ndarray], np.ndarray],
    t_points: Iterable[float],
    method: str = "euler",
    **options,
) -> np.ndarray:
    """One-shot density inversion ``f(t) = L^{-1}[F](t)``."""
    return get_inverter(method, **options).invert(transform, t_points)


def invert_cdf(
    transform: Callable[[np.ndarray], np.ndarray],
    t_points: Iterable[float],
    method: str = "euler",
    **options,
) -> np.ndarray:
    """One-shot CDF inversion via ``L(s)/s``."""
    return get_inverter(method, **options).invert_cdf(transform, t_points)


# --------------------------------------------------------------------------
# Conjugate-pair reduction.
#
# The transform of a real function satisfies L(conj(s)) = conj(L(s)), so the
# master only needs to evaluate one member of each conjugate pair.  These two
# helpers convert between the full s-point set and the reduced one; they are
# used by the distributed work queue to almost halve the number of tasks for
# the Laguerre grid (the Euler grid already lies in the upper half plane).
# --------------------------------------------------------------------------

def fold_conjugates(
    s_points: np.ndarray,
) -> tuple[np.ndarray, list[complex], np.ndarray, np.ndarray]:
    """Fold an s-grid onto the upper half plane, canonicalising each point once.

    Returns ``(points, keys, source, mirrored)``: the exact points left to
    evaluate — negative-imaginary members replaced by their mirror image,
    duplicates (up to canonical rounding) dropped, first-appearance order —
    with their canonical keys, and for every input point the position of the
    point that supplies its value and whether that value must be conjugated.
    """
    s_points = np.asarray(s_points, dtype=complex).ravel()
    position: dict[complex, int] = {}
    points: list[complex] = []
    source: list[int] = []
    mirrored: list[bool] = []
    for s, key in zip(s_points.tolist(), canonical_keys(s_points)):
        # A key is the conjugate of its mirror image's key (rounding is
        # symmetric).  A point whose imaginary part rounds away shares its
        # mirror's key and so reads that value as is, like any key lookup.
        mirror = key.imag < 0
        at = position.setdefault(key.conjugate() if mirror else key, len(points))
        if at == len(points):
            points.append(s.conjugate() if s.imag < 0 else s)
        source.append(at)
        mirrored.append(mirror)
    return (
        np.asarray(points, dtype=complex),
        list(position),
        np.asarray(source, dtype=np.intp),
        np.asarray(mirrored, dtype=bool),
    )


def conjugate_reduced(s_points: np.ndarray) -> np.ndarray:
    """Return a set of s-points with negative-imaginary members folded away."""
    return fold_conjugates(s_points)[0]


def expand_conjugates(values: Mapping[complex, complex]) -> dict[complex, complex]:
    """Extend a mapping of transform values to the conjugate s-points."""
    expanded = dict(values)
    for s, v in list(values.items()):
        expanded.setdefault(complex(np.conj(complex(s))), complex(np.conj(complex(v))))
    return expanded


def expand_to_grid(
    s_points, canonical_values: Mapping[complex, complex]
) -> dict[complex, complex]:
    """Key canonically cached transform values back onto an exact s-grid.

    ``canonical_values`` maps :func:`canonical_s` keys (the upper-half-plane
    member of each folded conjugate pair) to transform values; a grid point
    absent from it is recovered as the conjugate of its mirror image.  The
    result is keyed by the *exact* grid points, so downstream arithmetic
    (e.g. the CDF's ``L(s)/s``) divides by the same floats on every
    evaluation path — the property the engine-parity tests depend on.
    """
    s_points = np.asarray(s_points, dtype=complex).ravel()
    out: dict[complex, complex] = {}
    for s, key in zip(s_points.tolist(), canonical_keys(s_points)):
        value = canonical_values.get(key)
        if value is None:
            # canonical_s commutes with conjugation: rounding is symmetric
            value = complex(canonical_values[key.conjugate()]).conjugate()
        out[s] = value
    return out
