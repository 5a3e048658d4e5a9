"""Tests for state-space generation and the SM-SPN -> SMP mapping."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import PassageTimeSolver, TransientSolver
from repro.distributions import Convolution, Deterministic, Exponential, Uniform
from repro.petri import SMSPN, Transition, build_kernel, explore


def simple_cycle_net(stages: int = 3) -> SMSPN:
    """A token walking around a ring of ``stages`` places."""
    net = SMSPN("ring")
    for i in range(stages):
        net.add_place(f"s{i}", 1 if i == 0 else 0)
    for i in range(stages):
        net.add_transition(
            Transition(
                name=f"step{i}",
                inputs={f"s{i}": 1},
                outputs={f"s{(i + 1) % stages}": 1},
                distribution=Uniform(0.5, 1.5) if i % 2 == 0 else Exponential(2.0),
            )
        )
    return net


class TestExplore:
    def test_ring_state_space(self):
        graph = explore(simple_cycle_net(4))
        assert graph.n_states == 4
        assert graph.n_edges == 4
        assert not graph.truncated
        assert graph.deadlocks.size == 0
        assert graph.initial_state == 0

    def test_index_and_predicates(self):
        graph = explore(simple_cycle_net(3))
        idx = graph.index_of((0, 1, 0))
        assert tuple(graph.markings[idx]) == (0, 1, 0)
        with pytest.raises(KeyError):
            graph.index_of((1, 1, 1))
        states = graph.states_where(lambda m: m["s2"] == 1)
        assert states == [graph.index_of((0, 0, 1))]

    def test_truncation_flagged(self):
        net = SMSPN("unbounded")
        net.add_place("count", 0)
        net.add_transition(
            Transition(
                name="grow",
                inputs={},
                outputs={},
                guard=lambda m: True,
                action=lambda m: {"count": m["count"] + 1},
                distribution=Exponential(1.0),
            )
        )
        graph = explore(net, max_states=10)
        assert graph.truncated
        assert graph.n_states == 10
        with pytest.raises(ValueError):
            build_kernel(graph)

    def test_deadlock_detection(self):
        net = SMSPN("dead-end")
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition(
            Transition(name="go", inputs={"a": 1}, outputs={"b": 1}, distribution=Exponential(1.0))
        )
        graph = explore(net)
        assert graph.deadlocks.tolist() == [graph.index_of((0, 1))]
        kernel = build_kernel(graph)  # deadlock becomes a self-loop
        assert kernel.n_states == 2

    def test_transition_usage_stats(self):
        graph = explore(simple_cycle_net(3))
        usage = graph.transition_usage()
        assert usage == {"step0": 1, "step1": 1, "step2": 1}

    def test_marking_array_shape(self):
        graph = explore(simple_cycle_net(5))
        arr = graph.marking_array()
        assert arr.shape == (5, 5)
        assert np.all(arr.sum(axis=1) == 1)

    def test_progress_callback_invoked(self):
        seen = []
        net = simple_cycle_net(4)
        explore(net, on_progress=seen.append, progress_every=1)
        assert seen  # called at least once with a state count

    @pytest.mark.parametrize(
        "every,expected",
        [
            (226, [226]),
            (1, list(range(1, 227))),
            (50, [50, 100, 150, 200]),
            (227, []),
        ],
    )
    def test_progress_reports_every_milestone_once(self, every, expected):
        """Every multiple of ``progress_every`` up to the final count, once,
        the final one included (voting (8,3,2) has 226 states)."""
        from repro.models import SCALED_CONFIGURATIONS, build_voting_net

        seen = []
        space = explore(
            build_voting_net(SCALED_CONFIGURATIONS["small"]),
            on_progress=seen.append,
            progress_every=every,
        )
        assert space.n_states == 226
        assert seen == expected


class TestKernelMapping:
    def test_ring_passage_time_is_convolution(self):
        """Going all the way around the ring is the convolution of the three sojourns."""
        graph = explore(simple_cycle_net(3))
        kernel = build_kernel(graph)
        start = graph.index_of((1, 0, 0))
        solver = PassageTimeSolver(kernel, sources=[start], targets=[start])
        conv = Convolution([Uniform(0.5, 1.5), Exponential(2.0), Uniform(0.5, 1.5)])
        s = np.array([0.4 + 1.0j, 1.5 - 2.0j])
        for x in s:
            assert solver.transform(x) == pytest.approx(conv.lst(x), rel=1e-7)

    def test_probabilistic_choice_maps_to_branch_probabilities(self):
        net = SMSPN("branch")
        net.add_place("start", 1)
        net.add_place("left", 0)
        net.add_place("right", 0)
        net.add_transition(
            Transition(name="go_left", inputs={"start": 1}, outputs={"left": 1},
                       weight=3.0, distribution=Exponential(1.0))
        )
        net.add_transition(
            Transition(name="go_right", inputs={"start": 1}, outputs={"right": 1},
                       weight=1.0, distribution=Deterministic(2.0))
        )
        net.add_transition(
            Transition(name="back_l", inputs={"left": 1}, outputs={"start": 1},
                       distribution=Exponential(1.0))
        )
        net.add_transition(
            Transition(name="back_r", inputs={"right": 1}, outputs={"start": 1},
                       distribution=Exponential(1.0))
        )
        graph = explore(net)
        kernel = build_kernel(graph)
        P = kernel.embedded_matrix().toarray()
        i = graph.index_of((1, 0, 0))
        j_left = graph.index_of((0, 1, 0))
        j_right = graph.index_of((0, 0, 1))
        assert P[i, j_left] == pytest.approx(0.75)
        assert P[i, j_right] == pytest.approx(0.25)

    def test_helpers_build_solvers(self):
        """Marking predicates select the solvers' state sets on the kernel."""
        net = simple_cycle_net(3)
        graph = explore(net)
        kernel = build_kernel(graph)
        start = graph.states_where(lambda m: m["s0"] == 1)
        ps = PassageTimeSolver(kernel, start, graph.states_where(lambda m: m["s2"] == 1))
        ts = TransientSolver(kernel, start, graph.states_where(lambda m: m["s1"] == 1))
        assert ps.targets.tolist() == [graph.index_of((0, 0, 1))]
        assert 0.0 < ts.steady_state() < 1.0
        assert graph.states_where(lambda m: m["s0"] == 99) == []
        with pytest.raises(ValueError, match="source state"):
            PassageTimeSolver(kernel, [], ps.targets)

    def test_passage_solver_accepts_raw_net(self):
        """A bare net is one ``explore`` away from a kernel the solver takes."""
        net = simple_cycle_net(3)
        graph = explore(net)
        ps = PassageTimeSolver(
            build_kernel(graph),
            graph.states_where(lambda m: m["s0"] == 1),
            graph.states_where(lambda m: m["s1"] == 1),
        )
        density = ps.density([1.0])
        assert density[0] >= 0.0


class TestInternedLookups:
    """Satellite regressions: O(1) index_of and the uncopied marking_array."""

    def test_index_of_does_not_scan_the_marking_list(self):
        """index_of must answer from the interned table, never a row scan."""
        graph = explore(simple_cycle_net(4))
        markings = [tuple(row) for row in graph.markings]
        graph.index_of(markings[0])                    # builds the table
        graph.marking_matrix = graph.marking_matrix[:0]    # a scan finds nothing
        for i, marking in enumerate(markings):
            assert graph.index_of(marking) == i
        with pytest.raises(KeyError, match="not reachable"):
            graph.index_of((99, 0, 0, 0))

    def test_index_of_lookup_table_is_built_once(self):
        net = simple_cycle_net(3)
        graph = explore(net)
        graph.index_of(graph.markings[0])
        table = graph._index
        assert table is not None
        graph.index_of(graph.markings[-1])
        assert graph._index is table

    def test_marking_array_is_cached(self):
        net = simple_cycle_net(3)
        graph = explore(net)
        first = graph.marking_array()
        assert graph.marking_array() is first
        assert first is graph.marking_matrix       # the backing store, no copy
        assert first.dtype == np.int64
        assert first.shape == (graph.n_states, 3)
