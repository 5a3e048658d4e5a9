"""Convenience layer: from an SM-SPN straight to passage-time / transient solvers."""
from __future__ import annotations

from typing import Callable

# The module, not its names: the solvers sit on top of the api layer, which
# itself imports this package, so the classes are looked up at call time.
from ..core import solvers
from .net import SMSPN, MarkingView
from .statespace import StateSpace, build_kernel, explore

__all__ = ["marking_states", "passage_solver", "transient_solver"]


def marking_states(
    graph: StateSpace,
    predicate: Callable[[MarkingView], bool],
    *,
    label: str = "predicate",
) -> list[int]:
    """States whose markings satisfy ``predicate``; raises if the set is empty."""
    states = graph.states_where(predicate)
    if not states:
        raise ValueError(f"no reachable marking satisfies the {label} predicate")
    return states


def passage_solver(
    net_or_graph: SMSPN | StateSpace,
    source_predicate: Callable[[MarkingView], bool],
    target_predicate: Callable[[MarkingView], bool],
    **solver_options,
) -> solvers.PassageTimeSolver:
    """Build a :class:`PassageTimeSolver` between two marking predicates.

    ``source_predicate`` and ``target_predicate`` receive a
    :class:`MarkingView` (name-indexed token counts) and select the source
    and target state sets; everything else is forwarded to the solver.  A
    bare net is explored first.
    """
    graph = explore(net_or_graph) if isinstance(net_or_graph, SMSPN) else net_or_graph
    kernel = build_kernel(graph)
    sources = marking_states(graph, source_predicate, label="source")
    targets = marking_states(graph, target_predicate, label="target")
    return solvers.PassageTimeSolver(kernel, sources=sources, targets=targets, **solver_options)


def transient_solver(
    net_or_graph: SMSPN | StateSpace,
    source_predicate: Callable[[MarkingView], bool],
    target_predicate: Callable[[MarkingView], bool],
    **solver_options,
) -> solvers.TransientSolver:
    """Build a :class:`TransientSolver` between two marking predicates."""
    graph = explore(net_or_graph) if isinstance(net_or_graph, SMSPN) else net_or_graph
    kernel = build_kernel(graph)
    sources = marking_states(graph, source_predicate, label="source")
    targets = marking_states(graph, target_predicate, label="target")
    return solvers.TransientSolver(kernel, sources=sources, targets=targets, **solver_options)
