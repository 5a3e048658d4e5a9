"""Fig. 6 — density of the time to complete failure, analytic vs simulation.

The paper computes the passage from the fully operational initial marking to a
failure mode (all polling units failed or all central voting units failed) for
system 0 (2 061 states), and notes that the probabilities are so small that a
vanilla simulator struggles to register the distribution at all — the
motivating example for analytic rare-event analysis.

This benchmark regenerates the analytic density on the same (CC=18, MM=6,
NN=3) configuration, overlays a modest-budget simulation, and asserts the
qualitative claims: the failure passage is far longer/rarer than the voting
passage, the analytic curve is a proper density, and the simulation (where it
has samples at all) agrees at the CDF level.

The timed kernel is the analytic density computation.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_net,
    failure_mode_predicate,
    initial_marking_predicate,
)
from repro.core import PassageTimeSolver
from repro.simulation import PetriSimulator, empirical_cdf

PARAMS = SCALED_CONFIGURATIONS["medium"]
N_REPLICATIONS = 300    # deliberately modest: the point of Fig. 6 is that
                        # simulation needs rare-event machinery here


@pytest.fixture(scope="module")
def failure_solver(voting_graph_medium, voting_kernel_medium):
    return PassageTimeSolver(
        voting_kernel_medium,
        voting_graph_medium.states_where(initial_marking_predicate(PARAMS)),
        voting_graph_medium.states_where(failure_mode_predicate(PARAMS)),
    )


@pytest.fixture(scope="module")
def voting_solver(voting_graph_medium, voting_kernel_medium):
    return PassageTimeSolver(
        voting_kernel_medium,
        voting_graph_medium.states_where(initial_marking_predicate(PARAMS)),
        voting_graph_medium.states_where(all_voted_predicate(PARAMS)),
    )


@pytest.mark.benchmark(group="fig6-failure-mode")
def test_fig6_failure_mode_density(benchmark, failure_solver, voting_solver, report):
    fail_mean = failure_solver.mean()
    t_points = np.linspace(0.05 * fail_mean, 2.5 * fail_mean, 14)

    density = benchmark.pedantic(
        failure_solver.density, args=(t_points,), rounds=1, iterations=1
    )

    simulator = PetriSimulator(build_voting_net(PARAMS))
    samples = simulator.sample_passage_times(
        failure_mode_predicate(PARAMS), n_samples=N_REPLICATIONS, rng=61
    )

    lines = [
        f"Fig. 6 — density of the time to reach a failure mode ({PARAMS.label})",
        f"mean time to failure mode (analytic): {fail_mean:.1f}",
        f"mean voter-processing passage       : {voting_solver.mean():.1f}",
        f"{'t':>10} {'analytic f(t)':>15}",
    ]
    lines += [f"{t:10.1f} {f:15.8f}" for t, f in zip(t_points, density)]
    probe = np.quantile(samples, [0.25, 0.5, 0.75])
    analytic_cdf = failure_solver.cdf(probe)
    simulated_cdf = empirical_cdf(samples, probe)
    lines += [
        "",
        f"simulation cross-check ({N_REPLICATIONS} replications):",
        f"{'t':>10} {'analytic F(t)':>15} {'simulated F(t)':>15}",
    ]
    lines += [
        f"{t:10.1f} {a:15.4f} {s:15.4f}"
        for t, a, s in zip(probe, analytic_cdf, simulated_cdf)
    ]
    report("fig6_failure_mode", lines)

    # --- Shape assertions -------------------------------------------------
    # 1. The failure passage is a genuinely rarer/longer event than the
    #    voting passage (the reason Fig. 6 needed the analytic method).
    assert fail_mean > 5.0 * voting_solver.mean()
    # 2. The density is non-negative with its mass spread over a long range,
    #    and the probability of failing within one voting passage is small.
    assert np.all(density >= -1e-6)
    early = failure_solver.cdf([voting_solver.mean()])[0]
    assert early < 0.2
    # 3. Where the simulation does have mass, the two agree.
    assert np.max(np.abs(analytic_cdf - simulated_cdf)) < 0.12

    benchmark.extra_info["mean_time_to_failure"] = float(fail_mean)
    benchmark.extra_info["replications"] = N_REPLICATIONS
