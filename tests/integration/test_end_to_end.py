"""End-to-end integration tests crossing every layer of the library.

Each test exercises a complete path a user of the reproduction would take:
model text / net construction -> state space -> kernel -> transform
evaluation (serial or distributed) -> inversion -> measure, with simulation
as an independent witness where appropriate.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro import PassageTimeSolver, TransientSolver, load_model
from repro.core.jobs import PassageTimeJob
from repro.distributed import CheckpointStore, MultiprocessingBackend
from repro.dnamaca import parse_model
from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_graph,
    initial_marking_predicate,
    voting_spec_text,
)
from repro.petri import build_kernel, explore
from repro.simulation import PetriSimulator, empirical_cdf, simulate_passage_times
from repro.smp import smp_steady_state, source_weights
from tests.oneloop import LoopRun


@pytest.fixture(scope="module")
def params():
    return SCALED_CONFIGURATIONS["tiny"]


@pytest.fixture(scope="module")
def graph(params):
    return build_voting_graph(params)


class TestSpecificationToMeasures:
    """DNAmaca text -> SM-SPN -> SMP -> passage time / transient."""

    def test_full_chain_from_text(self, params):
        text = voting_spec_text(params)
        spec = parse_model(text)
        assert {"p1", "p2", "p7"} <= set(spec.place_names())

        net = load_model(text)
        graph = explore(net)
        kernel = build_kernel(graph)
        assert kernel.n_states == graph.n_states

        solver = PassageTimeSolver(
            kernel,
            graph.states_where(initial_marking_predicate(params)),
            graph.states_where(all_voted_predicate(params)),
        )
        mean = solver.mean()
        q50 = solver.quantile(0.50, 0.01 * mean, 10.0 * mean)
        q90 = solver.quantile(0.90, 0.01 * mean, 10.0 * mean)
        assert 0 < q50 < q90
        assert solver.cdf([q90])[0] == pytest.approx(0.90, abs=1e-4)

    def test_spec_model_agrees_with_python_model(self, params, graph):
        spec_graph = explore(load_model(voting_spec_text(params)))
        spec_solver, py_solver = (
            PassageTimeSolver(
                build_kernel(space),
                space.states_where(initial_marking_predicate(params)),
                space.states_where(all_voted_predicate(params)),
            )
            for space in (spec_graph, graph)
        )
        ts = np.array([5.0, 10.0, 20.0])
        assert np.allclose(spec_solver.density(ts), py_solver.density(ts), atol=1e-8)


class TestAnalyticAgainstSimulation:
    """The paper's validation methodology: analytic curves vs simulation."""

    def test_voting_passage_cdf(self, params, graph):
        kernel = build_kernel(graph)
        sources = graph.states_where(initial_marking_predicate(params))
        targets = graph.states_where(all_voted_predicate(params))
        solver = PassageTimeSolver(kernel, sources, targets)
        samples = simulate_passage_times(
            kernel, sources, targets, n_samples=3000, rng=123
        )
        probe = np.quantile(samples, [0.2, 0.5, 0.8])
        assert np.max(np.abs(solver.cdf(probe) - empirical_cdf(samples, probe))) < 0.04

    def test_net_level_simulation_agrees_with_kernel_level(self, params):
        from repro.models import build_voting_net

        net_samples = PetriSimulator(build_voting_net(params)).sample_passage_times(
            all_voted_predicate(params), n_samples=1200, rng=5
        )
        graph = build_voting_graph(params)
        kernel = build_kernel(graph)
        kernel_samples = simulate_passage_times(
            kernel,
            graph.states_where(initial_marking_predicate(params)),
            graph.states_where(all_voted_predicate(params)),
            n_samples=1200,
            rng=6,
        )
        probe = np.quantile(kernel_samples, [0.3, 0.6, 0.9])
        assert np.max(
            np.abs(empirical_cdf(net_samples, probe) - empirical_cdf(kernel_samples, probe))
        ) < 0.06


class TestDistributedPathEquivalence:
    """Serial solver, checkpoint-backed store and process-pool backend agree."""

    def test_all_execution_paths_agree(self, params, graph, tmp_path):
        kernel = build_kernel(graph)
        sources = graph.states_where(initial_marking_predicate(params))
        targets = graph.states_where(all_voted_predicate(params))
        t_points = np.array([6.0, 12.0, 24.0])

        solver = PassageTimeSolver(kernel, sources=sources, targets=targets)
        reference = solver.density(t_points)

        job = PassageTimeJob(
            kernel=kernel, alpha=source_weights(kernel, sources), targets=targets
        )
        checkpointed = LoopRun(job, checkpoint=CheckpointStore(tmp_path))
        assert np.allclose(checkpointed.density(t_points), reference, atol=1e-9)

        resumed = LoopRun(job, checkpoint=CheckpointStore(tmp_path))
        assert np.allclose(resumed.density(t_points), reference, atol=1e-9)
        assert resumed.stats.s_points_computed == 0

        backend = MultiprocessingBackend(processes=2, block_size=8)
        try:
            pooled = LoopRun(job, backend=backend).density(t_points)
        finally:
            backend.close()
        assert np.allclose(pooled, reference, atol=1e-9)


class TestSteadyStateConsistency:
    """Transient limits, steady states and simulation occupancy line up."""

    def test_transient_limit_matches_smp_steady_state(self, params, graph):
        kernel = build_kernel(graph)
        operational = graph.states_where(lambda m: m["p7"] == 0 and m["p6"] == 0)
        solver = TransientSolver(
            kernel,
            graph.states_where(initial_marking_predicate(params)),
            operational,
            method="direct",
        )
        limit = solver.steady_state()
        pi = smp_steady_state(kernel)
        assert limit == pytest.approx(pi[operational].sum(), abs=1e-9)
        # Mixing is slow (the Fig. 3 bulk repair has a 5000s Erlang branch),
        # so the comparison point sits well beyond that time scale.
        late = solver.probability([30_000.0])[0]
        assert late == pytest.approx(limit, abs=0.01)
