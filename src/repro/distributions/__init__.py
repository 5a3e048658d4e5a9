"""Distribution library used for semi-Markov sojourn times.

Every distribution exposes

* its Laplace–Stieltjes transform ``lst(s)`` evaluated at scalar or vectors of
  complex ``s`` (this is what the passage-time engine consumes),
* a sampler ``sample(rng)`` (what the validating simulator consumes),
* moments and, where available, closed-form ``pdf``/``cdf``.

The module also provides the paper's *constant-space representation* of a
general distribution — :class:`SampledTransform` — which stores nothing but
the transform values at the s-points demanded by the chosen Laplace-inversion
algorithm (Section 4 of the paper).
"""
from .base import Distribution
from .standard import (
    Exponential,
    Erlang,
    Gamma,
    Uniform,
    Deterministic,
    Immediate,
    Weibull,
    LogNormal,
    Pareto,
    HyperExponential,
)
from .combinators import Mixture, Convolution, Scaled, Shifted, probabilistic_choice
from .sampled import SampledTransform, sample_transform
from .numeric import numeric_lst

__all__ = [
    "Distribution",
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
    "Mixture",
    "Convolution",
    "Scaled",
    "Shifted",
    "probabilistic_choice",
    "SampledTransform",
    "sample_transform",
    "numeric_lst",
]
