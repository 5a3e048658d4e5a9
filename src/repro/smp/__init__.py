"""Semi-Markov process kernel, steady-state and passage-time machinery.

This package is the numerical heart of the reproduction:

* :class:`SMPKernel` / :class:`SMPBuilder` — sparse representation of the
  kernel ``R(i, j, t) = p_ij H_ij(t)`` and assembly of the complex matrices
  ``U(s)`` and ``U'(s)`` used by the iterative algorithm,
* :mod:`repro.smp.embedded` — steady state of the embedded DTMC (the
  ``alpha`` weights of Eq. 5),
* :mod:`repro.smp.passage` — the paper's iterative passage-time algorithm
  (Eqs. 8–11),
* :mod:`repro.smp.linear` — the classical direct linear solve (Eqs. 2–3),
  used for routed s-points and as a validation baseline, and the passage
  time's exact moments from the same system at ``s = 0``,
* :mod:`repro.smp.transient` — transient state distributions via Pyke's
  relations (Eqs. 6–7),
* :mod:`repro.smp.steady` — long-run SMP state probabilities (the t -> inf
  reference line of Fig. 7).
"""
from .kernel import SMPKernel, UEvaluator, kernel_content_digest
from .factored import FactoredUEvaluator
from .plane import AttachedPlane, KernelPlane, PlaneHandle, PlaneStore
from .builder import SMPBuilder
from .embedded import dtmc_steady_state, source_weights
from .steady import smp_steady_state, steady_state_probability
from .passage import (
    PassageTimeOptions,
    SPointPolicy,
    passage_transform_batch,
    passage_transform_vector_batch,
    ConvergenceDiagnostics,
)
from .linear import passage_moments, passage_transform_direct_batch
from .transient import transient_transform_batch

__all__ = [
    "SMPKernel",
    "UEvaluator",
    "kernel_content_digest",
    "FactoredUEvaluator",
    "AttachedPlane",
    "KernelPlane",
    "PlaneHandle",
    "PlaneStore",
    "SMPBuilder",
    "dtmc_steady_state",
    "source_weights",
    "smp_steady_state",
    "steady_state_probability",
    "PassageTimeOptions",
    "SPointPolicy",
    "passage_transform_batch",
    "passage_transform_vector_batch",
    "ConvergenceDiagnostics",
    "passage_moments",
    "passage_transform_direct_batch",
    "transient_transform_batch",
]
