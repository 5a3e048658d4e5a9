"""Fig. 4 — passage-time density for processing all voters, analytic vs simulation.

The paper's Fig. 4 overlays the analytic density of the time to process 175
voters in system 5 (1.1 million states) with a simulation of the same model
and observes (i) close agreement and (ii) a roughly Normal shape.  This
benchmark regenerates both curves for the system-0-sized configuration
(CC=18, MM=6, NN=3): the shape claims — agreement within simulation noise and
a unimodal, approximately Normal density around the mean — are asserted.

The timed kernel is the full analytic density computation (s-point
evaluations + Euler inversion).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_net,
    initial_marking_predicate,
)
from repro.core import PassageTimeSolver
from repro.simulation import PetriSimulator, density_histogram, empirical_cdf

PARAMS = SCALED_CONFIGURATIONS["medium"]   # the paper's system 0 parameters
N_REPLICATIONS = 1_500


@pytest.fixture(scope="module")
def solver(voting_graph_medium, voting_kernel_medium):
    return PassageTimeSolver(
        voting_kernel_medium,
        voting_graph_medium.states_where(initial_marking_predicate(PARAMS)),
        voting_graph_medium.states_where(all_voted_predicate(PARAMS)),
    )


@pytest.fixture(scope="module")
def simulation_samples():
    simulator = PetriSimulator(build_voting_net(PARAMS))
    return simulator.sample_passage_times(
        all_voted_predicate(PARAMS), n_samples=N_REPLICATIONS, rng=20030422
    )


@pytest.mark.benchmark(group="fig4-passage-density")
def test_fig4_density_analytic_vs_simulation(benchmark, solver, simulation_samples, report):
    mean = solver.mean()
    t_points = np.linspace(0.55 * mean, 1.7 * mean, 16)

    density = benchmark.pedantic(solver.density, args=(t_points,), rounds=1, iterations=1)
    sim_centres, sim_density, sim_stderr = density_histogram(
        simulation_samples, bins=16, t_range=(0.55 * mean, 1.7 * mean)
    )

    lines = [
        "Fig. 4 — density of the time to process all voters "
        f"({PARAMS.label}, {N_REPLICATIONS} simulation replications)",
        f"mean passage time (analytic): {mean:.2f}",
        f"{'t':>9} {'analytic f(t)':>14} {'simulated f(t)':>15} {'sim std-err':>12}",
    ]
    sim_lookup = np.interp(t_points, sim_centres, sim_density)
    err_lookup = np.interp(t_points, sim_centres, sim_stderr)
    for t, fa, fs, se in zip(t_points, density, sim_lookup, err_lookup):
        lines.append(f"{t:9.2f} {fa:14.6f} {fs:15.6f} {se:12.6f}")
    report("fig4_passage_density", lines)

    # --- Shape assertions -------------------------------------------------
    # 1. agreement with simulation at the distribution level (CDF within
    #    a few simulation standard errors).
    probe = np.quantile(simulation_samples, [0.15, 0.4, 0.6, 0.85])
    analytic_cdf = solver.cdf(probe)
    simulated_cdf = empirical_cdf(simulation_samples, probe)
    assert np.max(np.abs(analytic_cdf - simulated_cdf)) < 0.05

    # 2. unimodal, roughly central peak (the paper notes the density "appears
    #    close to Normal").
    assert np.all(density >= -1e-6)
    peak = t_points[int(np.argmax(density))]
    assert 0.7 * mean < peak < 1.3 * mean
    finite_mass = np.trapezoid(density, t_points)
    assert 0.8 < finite_mass <= 1.05

    benchmark.extra_info["mean_passage_time"] = float(mean)
    benchmark.extra_info["states"] = solver.kernel.n_states
