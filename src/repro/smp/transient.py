"""Transient state distributions (Eqs. 6–7) as one Markov-renewal sum.

The transform of the transient probability ``P(Z(t) in j)`` from an
initial weighting ``alpha`` sums over the number ``r`` of transitions made
by time ``t``: the process is in state ``k`` after ``r`` transitions with
transform ``(alpha U(s)^r)_k`` and is still there at ``t`` while its
sojourn lasts, whose transform is ``(1 - h*_k(s)) / s``.  Hence

    T*_{alpha,j}(s) = sum_{r >= 0} (alpha U(s)^r) . w(s),
    w_k(s) = (1 - h*_k(s)) / s  for k in j,  0 otherwise,

which is ``alpha (I - U(s))^-1 w(s)``.  It equals Pyke's relations of the
paper,

    T*_ii(s) = (1/s) (1 - h*_i(s)) / (1 - L_ii(s))
    T*_ij(s) = L_ij(s) T*_jj(s)                       (i != j),

because splitting the paths from ``i`` at their first visit to ``j``
gives ``L_ij(s)`` and splitting those from ``j`` at each return gives the
geometric series ``sum_m L_jj(s)^m = 1 / (1 - L_jj(s))``; Eq. (7) sums the
same terms target by target.  The sum above needs no passage quantity at
all: it is the row iteration of :mod:`repro.smp.passage` with ``U`` in place
of ``U'``, the weight ``w(s)`` in place of the target indicator and the
``r = 0`` term ``alpha . w`` added — one block solve per s-block, whatever
the number of target states, and one sparse LU per point the policy routes
to the direct solve.
"""
from __future__ import annotations

import numpy as np

from .kernel import as_evaluator, check_alpha, target_mask
from .passage import (
    ConvergenceDiagnostics,
    PassageTimeOptions,
    SPointPolicy,
    _Form,
    _form_batch,
)

__all__ = ["transient_transform_batch"]


def transient_transform_batch(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s_values,
    options: PassageTimeOptions | None = None,
    *,
    solver: str = "iterative",
    policy: SPointPolicy | None = None,
    report: dict | None = None,
) -> tuple[np.ndarray, list[ConvergenceDiagnostics]]:
    """Evaluate ``T*_{i->j}(s)``, the transform of ``P(Z(t) in j)``, at every
    point of an s-grid in one sweep.

    ``alpha`` is the initial-state weighting (Eq. 5; a unit vector for a
    single source), ``targets`` the target state set ``j``; ``solver`` is
    ``"iterative"`` (the Markov-renewal sum of the module docstring) or
    ``"direct"`` (one sparse LU of ``I - U(s)`` per point, solved
    transposed against ``alpha``).  The s-grid runs through the block loop
    of :mod:`repro.smp.passage` under the same truncation rule, routing and
    fallback as a passage, with ``||v||_1 · max|w(s)|`` as the bound on
    every future term.  Returns the values plus one
    :class:`ConvergenceDiagnostics` per s-point, each the point's own.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    s_values = np.asarray(s_values, dtype=complex).ravel()
    if np.any(s_values == 0):
        raise ValueError("the transient transform has a pole at s = 0; use Re(s) > 0")
    n = evaluator.kernel.n_states
    form = _Form(check_alpha(alpha, n), target_mask(n, targets), transient=True)
    return _form_batch(evaluator, form, s_values, options, solver, policy, report)
