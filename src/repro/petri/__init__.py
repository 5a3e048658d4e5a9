"""Semi-Markov stochastic Petri nets (SM-SPNs, Section 5.1 of the paper).

An SM-SPN is a place–transition net whose transitions carry marking-dependent
*priorities*, *weights* and *firing-time distributions*.  From a given marking
the net-enabled transitions are filtered to those of maximal priority and one
of them is chosen probabilistically by weight; the sojourn in the marking is
the chosen transition's firing distribution.  This race-free semantics maps
the reachability graph directly onto a semi-Markov chain, which is what
:func:`build_kernel` produces.

One explorer produces that state space: :func:`explore` (frontier-batched
NumPy evaluation) into a :class:`StateSpace` of columnar markings and edges,
the only representation of an explored net.  The per-marking reference it is
tested against lives in :mod:`repro.petri.reachability` and is not exported.

The names are imported on first access: importing the net layer does not load
the net-level solver shims of :mod:`repro.petri.analysis`, which sit above the
api layer.
"""
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "net": ["SMSPN", "Transition", "MarkingView"],
    "statespace": ["StateSpace", "explore", "explore_vectorized", "build_kernel"],
    "analysis": ["passage_solver", "transient_solver", "marking_states"],
    "vanishing": ["eliminate_vanishing", "is_vanishing_distribution"],
})
