"""Tests for the distributed voting system model."""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    VOTING_CONFIGURATIONS,
    VotingParameters,
    all_voted_predicate,
    build_voting_graph,
    build_voting_kernel,
    failure_mode_predicate,
    fully_operational_predicate,
    initial_marking_predicate,
    voters_done_predicate,
)
from repro.core import PassageTimeSolver, TransientSolver
from repro.petri import build_kernel


@pytest.fixture(scope="module")
def tiny_graph():
    return build_voting_graph(SCALED_CONFIGURATIONS["tiny"])


@pytest.fixture(scope="module")
def tiny_kernel(tiny_graph):
    return build_kernel(tiny_graph)


@pytest.fixture(scope="module")
def small_graph():
    return build_voting_graph(SCALED_CONFIGURATIONS["small"])


class TestConfigurationTable:
    def test_table1_rows_present(self):
        assert set(VOTING_CONFIGURATIONS) == {0, 1, 2, 3, 4, 5}
        system5 = VOTING_CONFIGURATIONS[5]
        assert (system5.voters, system5.polling_units, system5.central_units) == (175, 45, 5)
        assert system5.paper_states == 1_140_050

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VotingParameters(0, 5, 5)

    def test_label(self):
        assert VOTING_CONFIGURATIONS[0].label == "CC=18, MM=6, NN=3"


class TestOneModelOneDigest:
    """Every shipped road from the voting model to a kernel is the same road,
    so a checkpoint written through one entry point is a hit through another."""

    @pytest.mark.parametrize("config", ["tiny", "small"])
    def test_entry_points_share_kernel_and_job_digests(self, config):
        from repro import Model, PassageTimeJob, build_kernel, explore, load_model
        from repro.models import build_voting_net, voting_spec_text
        from repro.smp.kernel import kernel_content_digest

        params = SCALED_CONFIGURATIONS[config]
        kernel, graph = build_voting_kernel(params)
        kernels = [
            kernel,
            build_kernel(explore(build_voting_net(params))),
            build_kernel(explore(load_model(voting_spec_text(params)))),
            Model.from_spec(voting_spec_text(params)).kernel,
        ]
        assert len({kernel_content_digest(k) for k in kernels}) == 1
        alpha = np.zeros(graph.n_states)
        alpha[graph.initial_state] = 1.0
        targets = graph.states_where(all_voted_predicate(params))
        assert len({PassageTimeJob(k, alpha, targets).digest() for k in kernels}) == 1


class TestStateSpace:
    def test_tiny_state_space_properties(self, tiny_graph):
        params = SCALED_CONFIGURATIONS["tiny"]
        assert tiny_graph.n_states > 10
        assert tiny_graph.deadlocks.size == 0
        assert not tiny_graph.truncated
        # Invariants: voters and units are conserved in every reachable marking.
        arr = tiny_graph.marking_array()
        names = tiny_graph.net.places
        col = {n: i for i, n in enumerate(names)}
        voters = arr[:, col["p1"]] + arr[:, col["p2"]] + arr[:, col["p4"]]
        polling = arr[:, col["p3"]] + arr[:, col["p4"]] + arr[:, col["p7"]]
        central = arr[:, col["p5"]] + arr[:, col["p6"]]
        assert np.all(voters == params.voters)
        assert np.all(polling == params.polling_units)
        assert np.all(central == params.central_units)

    def test_state_count_grows_with_parameters(self, tiny_graph, small_graph):
        assert small_graph.n_states > tiny_graph.n_states

    def test_medium_matches_paper_order_of_magnitude(self):
        """Our reconstruction of system 0 has the same order of state count as
        the paper's 2 061 (the exact net of Fig. 2 is not published)."""
        graph = build_voting_graph(SCALED_CONFIGURATIONS["medium"])
        paper = VOTING_CONFIGURATIONS[0].paper_states
        assert 0.5 * paper <= graph.n_states <= 2.0 * paper

    def test_predicates_select_states(self, tiny_graph):
        params = SCALED_CONFIGURATIONS["tiny"]
        initial = tiny_graph.states_where(initial_marking_predicate(params))
        assert initial == [0]
        done = tiny_graph.states_where(all_voted_predicate(params))
        assert done
        failed = tiny_graph.states_where(failure_mode_predicate(params))
        assert failed
        operational = tiny_graph.states_where(fully_operational_predicate(params))
        assert 0 in operational
        # progressive voter counts are nested sets
        done2 = set(tiny_graph.states_where(voters_done_predicate(2)))
        done4 = set(tiny_graph.states_where(voters_done_predicate(4)))
        assert done4.issubset(done2)

    def test_build_kernel_shortcut(self):
        kernel, graph = build_voting_kernel(SCALED_CONFIGURATIONS["tiny"])
        assert kernel.n_states == graph.n_states


class TestVotingMeasures:
    def test_voter_passage_time_is_sensible(self, tiny_graph, tiny_kernel):
        params = SCALED_CONFIGURATIONS["tiny"]
        solver = PassageTimeSolver(
            tiny_kernel,
            tiny_graph.states_where(initial_marking_predicate(params)),
            tiny_graph.states_where(all_voted_predicate(params)),
        )
        mean = solver.mean()
        assert 2.0 < mean < 100.0
        # The CDF is monotone and reaches high probability within a few means.
        ts = np.linspace(0.1 * mean, 4.0 * mean, 12)
        cdf = solver.cdf(ts)
        assert np.all(np.diff(cdf) > -5e-3)
        assert cdf[-1] > 0.95
        assert cdf[0] < 0.5
        # The transform-derived mean agrees with the survival-function
        # integral — a strong consistency check that also pins down the
        # heavy-tail contribution of the rare bulk-repair branch (Fig. 3's
        # Erlang(0.001, 5) component), which makes the mean sit far above
        # the median of this passage.
        grid = np.concatenate([np.linspace(0.2, 3 * mean, 40), np.geomspace(3.5 * mean, 5e4, 40)])
        survival = 1.0 - np.clip(solver.cdf(grid), 0.0, 1.0)
        integral = float(np.trapezoid(np.concatenate([[1.0], survival]),
                                      np.concatenate([[0.0], grid])))
        assert mean == pytest.approx(integral, rel=0.15)

    def test_density_integrates_to_one(self, tiny_graph, tiny_kernel):
        params = SCALED_CONFIGURATIONS["tiny"]
        solver = PassageTimeSolver(
            tiny_kernel,
            tiny_graph.states_where(initial_marking_predicate(params)),
            tiny_graph.states_where(all_voted_predicate(params)),
        )
        mean = solver.mean()
        ts = np.linspace(1e-2, 6 * mean, 200)
        density = solver.density(ts)
        assert np.trapezoid(density, ts) == pytest.approx(1.0, abs=0.05)

    def test_failure_mode_is_much_rarer_than_voting(self, tiny_graph, tiny_kernel):
        """The failure-mode passage has a far longer mean than the voter
        passage — the regime in which the paper's Fig. 6 says simulation
        struggles and the analytic method shines."""
        params = SCALED_CONFIGURATIONS["tiny"]
        initial = tiny_graph.states_where(initial_marking_predicate(params))
        voting = PassageTimeSolver(
            tiny_kernel, initial, tiny_graph.states_where(all_voted_predicate(params))
        ).mean()
        failure = PassageTimeSolver(
            tiny_kernel, initial, tiny_graph.states_where(failure_mode_predicate(params))
        ).mean()
        assert failure > 2.0 * voting

    def test_transient_tends_to_steady_state(self, tiny_graph, tiny_kernel):
        """Fig. 7 behaviour: the transient approaches its steady-state value.

        Mixing is slow because the bulk-repair distribution of Fig. 3 has a
        5000-second Erlang branch, so the comparison point is far out in time
        and the (exact) direct solver is used to keep the test fast.
        """
        params = SCALED_CONFIGURATIONS["tiny"]
        solver = TransientSolver(
            tiny_kernel,
            tiny_graph.states_where(initial_marking_predicate(params)),
            tiny_graph.states_where(voters_done_predicate(2)),
            method="direct",
        )
        limit = solver.steady_state()
        early = solver.probability([20.0])[0]
        late = solver.probability([2000.0])[0]
        assert late == pytest.approx(limit, abs=0.02)
        assert abs(late - limit) < abs(early - limit)

    def test_quantile_extraction(self, tiny_graph, tiny_kernel):
        """The reliability-quantile computation of Fig. 5 / Section 5.3.1."""
        params = SCALED_CONFIGURATIONS["tiny"]
        solver = PassageTimeSolver(
            tiny_kernel,
            tiny_graph.states_where(initial_marking_predicate(params)),
            tiny_graph.states_where(all_voted_predicate(params)),
        )
        mean = solver.mean()
        median = solver.quantile(0.50, 0.01 * mean, 20.0 * mean)
        q99 = solver.quantile(0.99, 0.01 * mean, 20.0 * mean)
        assert q99 > median
        assert solver.cdf([q99])[0] == pytest.approx(0.99, abs=1e-4)
        assert solver.cdf([median])[0] == pytest.approx(0.50, abs=1e-4)
