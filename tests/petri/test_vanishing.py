"""GSPN-style immediate transitions: the vanishing-marking reduction.

The package keeps vanishing markings as zero-sojourn states; the reduction
that folds them away is the oracle :mod:`tests.reference.vanishing`, checked
here on hand-built nets before the generated-net invariant
(``tests/petri/test_random_nets_properties.py``) trusts it.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import PassageTimeSolver
from repro.distributions import Deterministic, Erlang, Exponential, Immediate, Uniform
from repro.petri import SMSPN, Transition, build_kernel, explore
from tests.reference import eliminate_vanishing, is_vanishing_distribution


def routed_net(weights=(3.0, 1.0)) -> SMSPN:
    """A timed arrival followed by an immediate probabilistic routing choice.

    ``arrive`` (Erlang) puts a token into ``router``; two immediate
    transitions route it to ``left`` or ``right`` with the given weights; a
    timed transition returns it to ``idle`` from either branch.
    """
    net = SMSPN("routed")
    net.add_place("idle", 1)
    net.add_place("router", 0)
    net.add_place("left", 0)
    net.add_place("right", 0)
    net.add_transition(
        Transition(name="arrive", inputs={"idle": 1}, outputs={"router": 1},
                   distribution=Erlang(2.0, 2))
    )
    net.add_transition(
        Transition(name="route_left", inputs={"router": 1}, outputs={"left": 1},
                   weight=weights[0], distribution=Immediate())
    )
    net.add_transition(
        Transition(name="route_right", inputs={"router": 1}, outputs={"right": 1},
                   weight=weights[1], distribution=Immediate())
    )
    net.add_transition(
        Transition(name="serve_left", inputs={"left": 1}, outputs={"idle": 1},
                   distribution=Uniform(0.5, 1.5))
    )
    net.add_transition(
        Transition(name="serve_right", inputs={"right": 1}, outputs={"idle": 1},
                   distribution=Exponential(1.0))
    )
    return net


class TestVanishingDetection:
    def test_is_vanishing_distribution(self):
        assert is_vanishing_distribution(Immediate())
        assert is_vanishing_distribution(Deterministic(0.0))
        assert not is_vanishing_distribution(Deterministic(0.1))
        assert not is_vanishing_distribution(Exponential(100.0))

    def test_graph_without_immediates_is_returned_unchanged(self, ring_kernel):
        net = SMSPN("plain")
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition(Transition(name="go", inputs={"a": 1}, outputs={"b": 1},
                                      distribution=Exponential(1.0)))
        net.add_transition(Transition(name="back", inputs={"b": 1}, outputs={"a": 1},
                                      distribution=Exponential(1.0)))
        graph = explore(net)
        assert eliminate_vanishing(graph) is graph


class TestElimination:
    def test_vanishing_markings_removed(self):
        graph = explore(routed_net())
        reduced = eliminate_vanishing(graph)
        assert reduced.n_states == graph.n_states - 1   # the router marking vanishes
        router_markings = [m for m in reduced.markings if m[1] > 0]
        assert not router_markings
        # Probabilities out of each state still sum to one.
        kernel = build_kernel(reduced)
        P = kernel.embedded_matrix()
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_routing_probabilities_folded_into_arrival(self):
        graph = explore(routed_net(weights=(3.0, 1.0)))
        reduced = eliminate_vanishing(graph)
        kernel = build_kernel(reduced)
        idle = reduced.index_of((1, 0, 0, 0))
        left = reduced.index_of((0, 0, 1, 0))
        right = reduced.index_of((0, 0, 0, 1))
        P = kernel.embedded_matrix().toarray()
        assert P[idle, left] == pytest.approx(0.75)
        assert P[idle, right] == pytest.approx(0.25)

    def test_passage_times_preserved(self):
        """Cycle time idle -> idle equals Erlang arrival + the routed service,
        with the immediate hop contributing probability but no time."""
        graph = explore(routed_net(weights=(1.0, 1.0)))
        reduced = eliminate_vanishing(graph)
        kernel = build_kernel(reduced)
        idle = reduced.index_of((1, 0, 0, 0))
        solver = PassageTimeSolver(kernel, sources=[idle], targets=[idle])
        s = 0.4 + 1.1j
        arrival = Erlang(2.0, 2).lst(s)
        expected = arrival * (0.5 * Uniform(0.5, 1.5).lst(s) + 0.5 * Exponential(1.0).lst(s))
        assert solver.transform(s) == pytest.approx(expected, rel=1e-8)

    def test_chained_immediates_resolve_transitively(self):
        net = SMSPN("chain")
        for name in ("a", "b", "c", "d"):
            net.add_place(name, 1 if name == "a" else 0)
        net.add_transition(Transition(name="t1", inputs={"a": 1}, outputs={"b": 1},
                                      distribution=Exponential(2.0)))
        net.add_transition(Transition(name="i1", inputs={"b": 1}, outputs={"c": 1},
                                      distribution=Immediate()))
        net.add_transition(Transition(name="i2", inputs={"c": 1}, outputs={"d": 1},
                                      distribution=Immediate()))
        net.add_transition(Transition(name="t2", inputs={"d": 1}, outputs={"a": 1},
                                      distribution=Exponential(3.0)))
        reduced = eliminate_vanishing(explore(net))
        assert reduced.n_states == 2
        kernel = build_kernel(reduced)
        a = reduced.index_of((1, 0, 0, 0))
        solver = PassageTimeSolver(kernel, sources=[a], targets=[a])
        assert solver.mean() == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-5)

    def test_vanishing_cycle_rejected(self):
        net = SMSPN("loop")
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_place("go", 0)
        net.add_transition(Transition(name="start", inputs={"a": 1}, outputs={"b": 1},
                                      distribution=Exponential(1.0)))
        net.add_transition(Transition(name="i1", inputs={"b": 1}, outputs={"go": 1},
                                      distribution=Immediate()))
        net.add_transition(Transition(name="i2", inputs={"go": 1}, outputs={"b": 1},
                                      distribution=Immediate()))
        with pytest.raises(ValueError, match="cycle of vanishing"):
            eliminate_vanishing(explore(net))

    def test_vanishing_initial_marking_rejected(self):
        net = SMSPN("bad-start")
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition(Transition(name="i", inputs={"a": 1}, outputs={"b": 1},
                                      distribution=Immediate()))
        net.add_transition(Transition(name="t", inputs={"b": 1}, outputs={"a": 1},
                                      distribution=Exponential(1.0)))
        with pytest.raises(ValueError, match="initial marking is vanishing"):
            eliminate_vanishing(explore(net))
