"""Dense oracles of the complex direct solve: Eqs. (3) and (7) written out as
full matrices and handed to ``numpy.linalg.solve`` — no sparsity, no ordering,
no permutation — for the direct path's parity tests on small kernels."""
from __future__ import annotations

import numpy as np

from repro.smp.kernel import target_mask

from .smp import _kernel, u_matrix


def dense_passage_vector(kernel_or_evaluator, targets, s: complex) -> np.ndarray:
    """``L_{i->j}(s)`` for every start state ``i``: ``(I - U K) L = U e_j``."""
    kernel = _kernel(kernel_or_evaluator)
    mask = target_mask(kernel.n_states, targets)
    U = u_matrix(kernel, s).toarray()
    return np.linalg.solve(np.eye(kernel.n_states) - U * ~mask, U[:, mask].sum(axis=1))


def dense_transient_transform(kernel_or_evaluator, alpha, targets, s: complex) -> complex:
    """``T*(s) = alpha (I - U)^-1 w`` with ``w = (1 - h*(s)) / s`` on the targets."""
    kernel = _kernel(kernel_or_evaluator)
    mask = target_mask(kernel.n_states, targets)
    U = u_matrix(kernel, s).toarray()
    x = np.linalg.solve((np.eye(kernel.n_states) - U).T, np.asarray(alpha, dtype=complex))
    return complex(x[mask] @ ((1.0 - U.sum(axis=1)[mask]) / s))
