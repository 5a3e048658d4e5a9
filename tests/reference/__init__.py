"""Reference implementations: oracles the shipped code is compared against.

Nothing here is imported by ``src/`` (``tests/test_architecture.py`` pins
that) and nothing here is the *subject* of a test: these functions stand on
the right-hand side of comparisons only (the reduction's hand-built cases in
``tests/petri/test_vanishing.py`` check that oracle before it is trusted).

* :mod:`tests.reference.smp` — the per-s-point algorithm one point at a time:
  the scalar LST fill, ``U`` / ``U'`` as matrices, the row and the column
  loop, the transient assembly of Eq. (7) and a from-scratch direct solve.
  The package shipped these until PR 24; it now runs the block solve only.
* :mod:`tests.reference.moments` — the oracles of ``repro.smp.passage_moments``:
  the same ``s = 0`` system by a complete sparse LU (the package's solve
  until its real solves became one ILU + GMRES recipe), and moments by
  numerical differentiation of a transform near ``s = 0``.
* :mod:`tests.reference.vanishing` — the GSPN reduction: a state space with
  its vanishing markings folded into their predecessors.  The package keeps
  them as zero-sojourn states instead, so measures on the reduced kernel are
  what its measures on the unreduced one must equal.
"""
from .moments import lst_moments, lu_passage_moments, mean_from_lst, variance_from_lst
from .smp import (
    passage_transform,
    passage_transform_direct,
    passage_transform_vector,
    sojourn_lsts,
    transient_transform,
    u_data,
    u_matrix,
    u_prime,
)
from .vanishing import eliminate_vanishing, is_vanishing_distribution

__all__ = [
    "eliminate_vanishing",
    "is_vanishing_distribution",
    "lst_moments",
    "lu_passage_moments",
    "mean_from_lst",
    "variance_from_lst",
    "passage_transform",
    "passage_transform_direct",
    "passage_transform_vector",
    "sojourn_lsts",
    "transient_transform",
    "u_data",
    "u_matrix",
    "u_prime",
]
