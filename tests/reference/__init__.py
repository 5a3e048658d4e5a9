"""Reference implementations: oracles the shipped code is compared against.

Nothing here is imported by ``src/`` (``tests/test_architecture.py`` pins
that) and nothing here is the *subject* of a test: these functions stand on
the right-hand side of comparisons only.

* :mod:`tests.reference.smp` — the per-s-point algorithm one point at a time:
  the scalar LST fill, ``U`` / ``U'`` as matrices, the row and the column
  loop, the transient assembly of Eq. (7) and a from-scratch direct solve.
  The package shipped these until PR 24; it now runs the block solve only.
* :mod:`tests.reference.moments` — moments by numerical differentiation of a
  transform near ``s = 0``, the oracle of ``repro.smp.passage_moments``.
"""
from .moments import lst_moments, mean_from_lst, variance_from_lst
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

__all__ = [
    "lst_moments",
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
