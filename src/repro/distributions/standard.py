"""Standard sojourn-time distributions with closed-form or numeric transforms."""
from __future__ import annotations

import math

import numpy as np

from ..utils.validation import check_positive, check_non_negative, check_probability_vector
from .base import Distribution
from .numeric import numeric_lst

__all__ = [
    "Exponential",
    "Erlang",
    "Gamma",
    "Uniform",
    "Deterministic",
    "Immediate",
    "Weibull",
    "LogNormal",
    "Pareto",
    "HyperExponential",
]


def _phi(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``(1 - exp(-x)) / x`` for complex ``x``.

    Near ``x = 0`` the direct formula suffers catastrophic cancellation, so a
    Taylor expansion is used instead.
    """
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 6.0 - xs * xs * xs / 24.0
    xl = x[~small]
    out[~small] = -np.expm1(-xl) / xl
    return out


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``)."""

    def __init__(self, rate: float):
        self.rate = check_positive(rate, "rate")

    def lst(self, s):
        s = self._as_complex(s)
        return self._match_shape(self.rate / (self.rate + s), s)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.rate * np.exp(-self.rate * t), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, -np.expm1(-self.rate * t), 0.0)

    def _key(self):
        return ("Exponential", self.rate)


class Erlang(Distribution):
    """Erlang distribution: sum of ``shape`` iid exponentials of rate ``rate``.

    This matches the paper's ``erlangLT(lambda, n, s) = (lambda/(lambda+s))^n``.
    """

    def __init__(self, rate: float, shape: int):
        self.rate = check_positive(rate, "rate")
        if int(shape) != shape or shape < 1:
            raise ValueError(f"shape must be a positive integer, got {shape!r}")
        self.shape = int(shape)

    def lst(self, s):
        s = self._as_complex(s)
        return self._match_shape((self.rate / (self.rate + s)) ** self.shape, s)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def mean(self):
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate**2

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        k, lam = self.shape, self.rate
        with np.errstate(divide="ignore", invalid="ignore"):
            val = lam**k * t ** (k - 1) * np.exp(-lam * t) / math.factorial(k - 1)
        return np.where(t >= 0, np.nan_to_num(val), 0.0)

    def cdf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, special.gammainc(self.shape, self.rate * np.maximum(t, 0.0)), 0.0)

    def _key(self):
        return ("Erlang", self.rate, self.shape)


class Gamma(Distribution):
    """Gamma distribution with (possibly non-integer) shape and rate."""

    def __init__(self, shape: float, rate: float):
        self.shape = check_positive(shape, "shape")
        self.rate = check_positive(rate, "rate")

    def lst(self, s):
        s = self._as_complex(s)
        # Principal branch of (rate / (rate + s)) ** shape; for Re(s) >= 0 the
        # base never crosses the negative real axis so this is single-valued.
        base = self.rate / (self.rate + s)
        return self._match_shape(np.exp(self.shape * np.log(base)), s)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def mean(self):
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate**2

    def pdf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        k, lam = self.shape, self.rate
        with np.errstate(divide="ignore", invalid="ignore"):
            val = lam**k * t ** (k - 1) * np.exp(-lam * t) / special.gamma(k)
        return np.where(t > 0, np.nan_to_num(val), 0.0)

    def cdf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, special.gammainc(self.shape, self.rate * np.maximum(t, 0.0)), 0.0)

    def _key(self):
        return ("Gamma", self.shape, self.rate)


class Uniform(Distribution):
    """Continuous uniform distribution on ``[a, b]``.

    The transform matches the paper's ``uniformLT(a, b, s)``.
    """

    def __init__(self, a: float, b: float):
        a = check_non_negative(a, "a")
        b = check_positive(b, "b")
        if b <= a:
            raise ValueError(f"require a < b, got a={a}, b={b}")
        self.a = a
        self.b = b

    def lst(self, s):
        s = self._as_complex(s)
        # (e^{-as} - e^{-bs}) / (s (b - a)) written as e^{-as} * phi(s (b - a))
        val = np.exp(-self.a * s) * _phi(s * (self.b - self.a))
        return self._match_shape(val, s)

    def sample(self, rng, size=None):
        return rng.uniform(self.a, self.b, size=size)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def variance(self):
        return (self.b - self.a) ** 2 / 12.0

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= self.a) & (t <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def _key(self):
        return ("Uniform", self.a, self.b)


class Deterministic(Distribution):
    """A deterministic (fixed) delay of ``value`` time units."""

    def __init__(self, value: float):
        self.value = check_non_negative(value, "value")

    def lst(self, s):
        s = self._as_complex(s)
        return self._match_shape(np.exp(-self.value * s), s)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def mean(self):
        return self.value

    def variance(self):
        return 0.0

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.value, 1.0, 0.0)

    def _key(self):
        return ("Deterministic", self.value)


class Immediate(Deterministic):
    """A zero delay — used for SM-SPN transitions that fire instantaneously."""

    def __init__(self):
        super().__init__(0.0)

    def _key(self):
        return ("Immediate",)


class Weibull(Distribution):
    """Weibull distribution with shape ``k`` and scale ``lam`` (no closed-form LST)."""

    def __init__(self, shape: float, scale: float):
        self.shape = check_positive(shape, "shape")
        self.scale = check_positive(scale, "scale")

    def lst(self, s):
        s = self._as_complex(s)
        flat = np.atleast_1d(s).ravel()
        vals = numeric_lst(self.pdf, flat, upper=self.ppf(1.0 - 1e-12), cdf=self.cdf)
        return self._match_shape(vals.reshape(np.shape(s)) if np.ndim(s) else vals[0], s)

    def ppf(self, p):
        return self.scale * (-np.log1p(-np.asarray(p, dtype=float))) ** (1.0 / self.shape)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size=size)

    def mean(self):
        from scipy import special

        return self.scale * special.gamma(1.0 + 1.0 / self.shape)

    def variance(self):
        from scipy import special

        g1 = special.gamma(1.0 + 1.0 / self.shape)
        g2 = special.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        k, lam = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.maximum(t, 0.0) / lam
            val = (k / lam) * z ** (k - 1) * np.exp(-(z**k))
        return np.where(t > 0, np.nan_to_num(val), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = np.maximum(t, 0.0) / self.scale
        return np.where(t > 0, -np.expm1(-(z**self.shape)), 0.0)

    def _key(self):
        return ("Weibull", self.shape, self.scale)


class LogNormal(Distribution):
    """Log-normal distribution parameterised by the underlying normal's mu/sigma."""

    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = check_positive(sigma, "sigma")

    def lst(self, s):
        s = self._as_complex(s)
        flat = np.atleast_1d(s).ravel()
        vals = numeric_lst(self.pdf, flat, upper=self.ppf(1.0 - 1e-12), cdf=self.cdf)
        return self._match_shape(vals.reshape(np.shape(s)) if np.ndim(s) else vals[0], s)

    def ppf(self, p):
        from scipy import special

        return np.exp(self.mu + self.sigma * special.ndtri(np.asarray(p, dtype=float)))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self):
        return (math.exp(self.sigma**2) - 1.0) * math.exp(2 * self.mu + self.sigma**2)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.exp(-((np.log(t) - self.mu) ** 2) / (2 * self.sigma**2)) / (
                t * self.sigma * math.sqrt(2 * math.pi)
            )
        return np.where(t > 0, np.nan_to_num(val), 0.0)

    def cdf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = special.ndtr((np.log(t) - self.mu) / self.sigma)
        return np.where(t > 0, np.nan_to_num(val), 0.0)

    def _key(self):
        return ("LogNormal", self.mu, self.sigma)


class Pareto(Distribution):
    """Classical (Type I) Pareto distribution with tail index ``alpha`` and minimum ``xm``."""

    def __init__(self, alpha: float, xm: float):
        self.alpha = check_positive(alpha, "alpha")
        self.xm = check_positive(xm, "xm")

    def lst(self, s):
        s = self._as_complex(s)
        flat = np.atleast_1d(s).ravel()
        vals = numeric_lst(
            self.pdf,
            flat,
            lower=self.xm,
            upper=self.ppf(1.0 - 1e-10),
            cdf=self.cdf,
            min_panels=128,
        )
        return self._match_shape(vals.reshape(np.shape(s)) if np.ndim(s) else vals[0], s)

    def ppf(self, p):
        return self.xm * (1.0 - np.asarray(p, dtype=float)) ** (-1.0 / self.alpha)

    def sample(self, rng, size=None):
        return self.xm * (1.0 + rng.pareto(self.alpha, size=size))

    def mean(self):
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    def variance(self):
        if self.alpha <= 2.0:
            return math.inf
        a, xm = self.alpha, self.xm
        return xm**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.alpha * self.xm**self.alpha / t ** (self.alpha + 1.0)
        return np.where(t >= self.xm, np.nan_to_num(val), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = 1.0 - (self.xm / t) ** self.alpha
        return np.where(t >= self.xm, np.nan_to_num(val), 0.0)

    def _key(self):
        return ("Pareto", self.alpha, self.xm)


class HyperExponential(Distribution):
    """Probabilistic mixture of exponential phases (closed-form transform)."""

    def __init__(self, probs, rates):
        self.probs = check_probability_vector(probs, "probs")
        rates = np.asarray(list(rates), dtype=float)
        if rates.shape != self.probs.shape:
            raise ValueError("probs and rates must have the same length")
        if np.any(rates <= 0) or np.any(~np.isfinite(rates)):
            raise ValueError("rates must be finite and > 0")
        self.rates = rates

    def lst(self, s):
        s = self._as_complex(s)
        sb = s[..., None] if np.ndim(s) else np.asarray([s])[..., None]
        vals = np.sum(self.probs * self.rates / (self.rates + sb), axis=-1)
        return self._match_shape(vals if np.ndim(s) else vals[0], s)

    def sample(self, rng, size=None):
        n = 1 if size is None else int(np.prod(size))
        branch = rng.choice(len(self.probs), size=n, p=self.probs)
        samples = rng.exponential(1.0 / self.rates[branch])
        if size is None:
            return float(samples[0])
        return samples.reshape(size)

    def mean(self):
        return float(np.sum(self.probs / self.rates))

    def variance(self):
        m1 = self.mean()
        m2 = float(np.sum(2.0 * self.probs / self.rates**2))
        return m2 - m1**2

    def pdf(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        val = np.sum(self.probs * self.rates * np.exp(-self.rates * np.maximum(t, 0.0)), axis=-1)
        return np.where(t[..., 0] >= 0, val, 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        val = np.sum(self.probs * -np.expm1(-self.rates * np.maximum(t, 0.0)), axis=-1)
        return np.where(t[..., 0] >= 0, val, 0.0)

    def _key(self):
        return ("HyperExponential", tuple(self.probs.tolist()), tuple(self.rates.tolist()))
