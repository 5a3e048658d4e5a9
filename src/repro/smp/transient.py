"""Transient state distributions from passage-time quantities (Eqs. 6–7).

Pyke's relations connect the transform of the transient probability
``T_ij(t) = P(Z(t) = j | Z(0) = i)`` to first-passage and cycle-time
transforms:

    T*_ii(s) = (1/s) (1 - h*_i(s)) / (1 - L_ii(s))
    T*_ij(s) = L_ij(s) T*_jj(s)                       (i != j)

For a set of target states ``j`` (Eq. 7) this needs, per s-point, one
passage-time vector computation per target state — each yields both
``L_ik(s)`` for every source ``i`` and the cycle transform ``L_kk(s)``.
"""
from __future__ import annotations

import numpy as np

from .kernel import as_evaluator, check_alpha, target_mask
from .passage import (
    ConvergenceDiagnostics,
    PassageTimeOptions,
    SPointPolicy,
    _block_loop,
    _Form,
    _solve_block,
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
    ``"iterative"`` (the paper's algorithm for the per-target passage-time
    vectors) or ``"direct"`` (the sparse linear solve).  The s-grid runs
    through the block loop of :mod:`repro.smp.passage` and, inside each
    block, every target's passage-time vectors of Eq. (7) come from one
    column-form block solve (or the batched direct solve), so the sojourn
    transforms, the cached transform data and each iteration's sparse
    products are shared by the block's points and targets.  Returns the
    values plus one aggregated :class:`ConvergenceDiagnostics` per s-point
    (matvec counts summed over the target states, used by backends to
    apportion wall-clock time).
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    if solver not in ("iterative", "direct"):
        raise ValueError("solver must be 'iterative' or 'direct'")

    s_values = np.asarray(s_values, dtype=complex).ravel()
    if np.any(s_values == 0):
        raise ValueError("the transient transform has a pole at s = 0; use Re(s) > 0")

    n = evaluator.kernel.n_states
    alpha = check_alpha(alpha, n)

    targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
    if targets.size == 0:
        raise ValueError("at least one target state is required")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError("target state index out of range")

    options = options or PassageTimeOptions()
    policy = policy or SPointPolicy()
    source_states = np.where(np.abs(alpha) > 0)[0]
    weights = alpha[source_states]
    vector_form = _Form()

    def solve(engine, s_block):
        if engine == "factored":
            h = evaluator.factored().sojourn_lst_batch(s_block)
        else:
            h = evaluator.sojourn_lst_batch(s_block)

        totals = np.zeros(s_block.size, dtype=complex)
        matvec_totals = np.zeros(s_block.size, dtype=np.int64)
        direct_totals = np.zeros(s_block.size, dtype=np.int64)
        iterations_max = np.zeros(s_block.size, dtype=np.int64)
        converged_all = np.ones(s_block.size, dtype=bool)
        product_rows = 0
        for k in targets:
            l_mat, target_diags, target_rows = _solve_block(
                evaluator, engine, vector_form, target_mask(n, [k]), [k],
                s_block, options, policy,
            )
            lam = (1.0 - h[:, k]) / (1.0 - l_mat[:, k])
            l_src = np.take(l_mat, source_states, axis=1)
            k_pos = np.flatnonzero(source_states == k)
            if k_pos.size:
                # The delta term of Eq. (7): a source equal to the target
                # contributes Lambda_k itself rather than Lambda_k L_kk(s).
                l_src[:, k_pos[0]] = 1.0
            # reduced row by row: a point's value is independent of its block
            totals += lam * np.add.reduce(l_src * weights, axis=1)
            product_rows += target_rows
            for t, diag in enumerate(target_diags):
                matvec_totals[t] += diag.matvec_count
                direct_totals[t] += diag.direct_solves
                iterations_max[t] = max(iterations_max[t], diag.iterations)
                converged_all[t] &= diag.converged

        return totals / s_block, [
            ConvergenceDiagnostics(
                iterations=int(iterations_max[t]),
                converged=bool(converged_all[t]),
                final_delta=0.0,
                matvec_count=int(matvec_totals[t]),
                solver="direct" if direct_totals[t] and matvec_totals[t] == 0 else "iterative",
                direct_solves=int(direct_totals[t]),
                engine=engine,
            )
            for t in range(s_block.size)
        ], product_rows

    values = np.empty(s_values.size, dtype=complex)
    diags = _block_loop(
        evaluator, policy, s_values, values, solve, report,
        vector=True, direct=solver == "direct",
    )
    return values, diags
