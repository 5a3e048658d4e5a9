"""Tests for the direct SM-SPN simulator (no state-space generation)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_graph,
    build_voting_net,
    initial_marking_predicate,
    voters_done_predicate,
)
from repro.core import PassageTimeSolver, TransientSolver
from repro.petri import SMSPN, Transition, build_kernel
from repro.distributions import Exponential, Uniform
from repro.simulation import PetriSimulator, empirical_cdf


@pytest.fixture(scope="module")
def tiny_params():
    return SCALED_CONFIGURATIONS["tiny"]


@pytest.fixture(scope="module")
def tiny_net(tiny_params):
    return build_voting_net(tiny_params)


@pytest.fixture(scope="module")
def tiny_graph(tiny_params):
    return build_voting_graph(tiny_params)


class TestPetriSimulator:
    def test_passage_times_match_state_space_simulation(self, tiny_net, tiny_params, tiny_graph):
        """Simulating the net directly and analysing the generated SMP must
        describe the same random variable (cross-validation of Fig. 4 style)."""
        simulator = PetriSimulator(tiny_net)
        samples = simulator.sample_passage_times(
            all_voted_predicate(tiny_params), n_samples=1500, rng=7
        )
        solver = PassageTimeSolver(
            build_kernel(tiny_graph),
            tiny_graph.states_where(initial_marking_predicate(tiny_params)),
            tiny_graph.states_where(all_voted_predicate(tiny_params)),
        )
        ts = np.quantile(samples, [0.25, 0.5, 0.75])
        analytic = solver.cdf(ts)
        simulated = empirical_cdf(samples, ts)
        assert np.max(np.abs(analytic - simulated)) < 0.05
        # The mean is not compared: the rare bulk-repair branch has a 5000s
        # Erlang component (Fig. 3), so the sample mean of 1500 replications
        # has enormous variance — exactly the rare-event weakness of
        # simulation that the paper's Fig. 6 discussion points out.

    def test_transient_matches_analytic(self, tiny_net, tiny_params, tiny_graph):
        simulator = PetriSimulator(tiny_net)
        t_points = np.array([2.0, 6.0, 15.0])
        simulated = simulator.sample_transient(
            voters_done_predicate(2), t_points, n_samples=2000, rng=11
        )
        solver = TransientSolver(
            build_kernel(tiny_graph),
            tiny_graph.states_where(initial_marking_predicate(tiny_params)),
            tiny_graph.states_where(voters_done_predicate(2)),
        )
        analytic = solver.probability(t_points)
        assert np.max(np.abs(simulated - analytic)) < 0.05

    def test_deadlock_detected(self):
        net = SMSPN("dead")
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition(
            Transition(name="go", inputs={"a": 1}, outputs={"b": 1}, distribution=Exponential(1.0))
        )
        simulator = PetriSimulator(net)
        with pytest.raises(RuntimeError, match="deadlock"):
            simulator.sample_passage_times(lambda m: False, n_samples=1, rng=0)

    def test_max_firings_guard(self, tiny_net, tiny_params):
        simulator = PetriSimulator(tiny_net)
        with pytest.raises(RuntimeError, match="did not reach"):
            simulator.sample_passage_times(
                lambda m: False, n_samples=1, rng=0, max_firings=50
            )

    def test_custom_initial_marking(self):
        net = SMSPN("walk")
        net.add_place("here", 1)
        net.add_place("there", 0)
        net.add_transition(
            Transition(name="go", inputs={"here": 1}, outputs={"there": 1},
                       distribution=Uniform(1.0, 2.0))
        )
        net.add_transition(
            Transition(name="back", inputs={"there": 1}, outputs={"here": 1},
                       distribution=Uniform(1.0, 2.0))
        )
        simulator = PetriSimulator(net)
        samples = simulator.sample_passage_times(
            lambda m: m["here"] == 1,
            n_samples=200,
            rng=3,
            initial_marking=(0, 1),
        )
        assert np.all((samples >= 1.0) & (samples <= 2.0))

    def test_marking_cache_reused(self, tiny_net, tiny_params):
        simulator = PetriSimulator(tiny_net)
        simulator.sample_passage_times(all_voted_predicate(tiny_params), n_samples=20, rng=5)
        assert len(simulator._choice_cache) > 0
        uncached = PetriSimulator(tiny_net, cache_markings=False)
        uncached.sample_passage_times(all_voted_predicate(tiny_params), n_samples=5, rng=5)
        assert len(uncached._choice_cache) == 0
