"""Tests for the auxiliary example models (analytic SMPs and queueing nets)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import PassageTimeSolver
from repro.distributions import Convolution, Deterministic, Erlang, Exponential, Uniform
from repro.models import (
    alternating_renewal_kernel,
    birth_death_kernel,
    cyclic_server_kernel,
    mg1_queue_kernel,
    web_server_net,
)
from repro.petri import explore, build_kernel
from repro.smp import smp_steady_state


class TestAlternatingRenewal:
    def test_defaults(self):
        k = alternating_renewal_kernel()
        assert k.n_states == 2
        assert k.state_names == ["up", "down"]

    def test_custom_distributions(self):
        k = alternating_renewal_kernel(Exponential(0.1), Deterministic(5.0))
        pi = smp_steady_state(k)
        # availability = E[up] / (E[up] + E[down]) = 10 / 15
        assert pi[0] == pytest.approx(2.0 / 3.0)

    def test_passage_is_up_time(self, t_grid):
        up = Erlang(3.0, 2)
        k = alternating_renewal_kernel(up, Uniform(0.0, 1.0))
        solver = PassageTimeSolver(k, sources=[0], targets=[1])
        assert np.allclose(solver.density(t_grid), up.pdf(t_grid), atol=1e-6)


class TestBirthDeath:
    def test_structure(self):
        k = birth_death_kernel(6)
        assert k.n_states == 6
        with pytest.raises(ValueError):
            birth_death_kernel(1)

    def test_first_passage_0_to_1_is_exponential(self, t_grid):
        k = birth_death_kernel(4, birth_rate=2.0, death_rate=1.0)
        solver = PassageTimeSolver(k, sources=[0], targets=[1])
        expected = Exponential(2.0)
        assert np.allclose(solver.density(t_grid), expected.pdf(t_grid), atol=1e-6)

    def test_mean_hitting_time_matches_ctmc_theory(self):
        """Mean first-passage 0 -> N of a birth-death CTMC, checked against the
        standard recursive formula."""
        birth, death, n = 1.0, 1.5, 4
        k = birth_death_kernel(n + 1, birth_rate=birth, death_rate=death)
        solver = PassageTimeSolver(k, sources=[0], targets=[n])
        # Classical formula: E[T_{0->N}] = sum_{i=0}^{N-1} sum_{j=0}^{i} (d^j/b^{j+1}) * ...
        # computed numerically by solving the linear system for expected hitting times.
        rates_up = np.full(n + 1, birth)
        rates_down = np.full(n + 1, death)
        rates_down[0] = 0.0
        A = np.zeros((n, n))
        b_vec = np.ones(n)
        for i in range(n):
            total = rates_up[i] + rates_down[i]
            b_vec[i] = 1.0 / total
            A[i, i] = 1.0
            if i + 1 < n:
                A[i, i + 1] = -rates_up[i] / total
            if i - 1 >= 0:
                A[i, i - 1] = -rates_down[i] / total
        expected = np.linalg.solve(A, b_vec)[0]
        assert solver.mean() == pytest.approx(expected, rel=1e-4)


class TestCyclicServer:
    def test_cycle_time_transform(self):
        k = cyclic_server_kernel(3, service=Uniform(0.5, 1.5), walk=Deterministic(0.25))
        start = k.state_index("serve_0")
        solver = PassageTimeSolver(k, sources=[start], targets=[start])
        conv = Convolution([Uniform(0.5, 1.5), Deterministic(0.25)] * 3)
        s = 0.6 + 1.1j
        assert solver.transform(s) == pytest.approx(conv.lst(s), rel=1e-7)
        assert solver.mean() == pytest.approx(conv.mean(), rel=1e-4)

    def test_invalid_station_count(self):
        with pytest.raises(ValueError):
            cyclic_server_kernel(1)


class TestMg1Queue:
    def test_structure_and_steady_state(self):
        k = mg1_queue_kernel(capacity=6, arrival_rate=0.5, service=Uniform(0.5, 1.5))
        assert k.n_states == 7
        pi = smp_steady_state(k)
        assert pi.sum() == pytest.approx(1.0)
        # Light load: the empty state dominates deeper queue states.
        assert pi[0] > pi[-1]

    def test_busy_period_style_passage(self):
        k = mg1_queue_kernel(capacity=5, arrival_rate=0.5)
        solver = PassageTimeSolver(k, sources=[1], targets=[0])
        mean = solver.mean()
        assert mean > 0.5  # at least one service time
        assert np.isfinite(mean)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            mg1_queue_kernel(capacity=1)


class TestWebServerNet:
    def test_state_space_and_measures(self):
        net = web_server_net(servers=2, queue_capacity=3)
        graph = explore(net)
        assert graph.n_states > 10
        assert not graph.truncated
        assert graph.deadlocks.size == 0
        kernel = build_kernel(graph)
        assert kernel.n_states == graph.n_states

    def test_cluster_restart_is_reachable_and_prioritised(self):
        net = web_server_net(servers=2, queue_capacity=2)
        graph = explore(net)
        all_down = graph.states_where(lambda m: m["failed"] >= 2)
        assert all_down
        # In an all-down marking only the restart transition may fire.
        for state in all_down:
            enabled = net.enabled_transitions(graph.markings[state])
            assert [t.name for t in enabled] == ["cluster_restart"]
