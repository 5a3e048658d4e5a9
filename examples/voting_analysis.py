#!/usr/bin/env python3
"""The paper's distributed voting system: passage times, quantiles, transients.

This example reproduces, on a reduced configuration, the measures reported in
Section 5.3 of the paper:

* the density of the time to process all voters (Fig. 4),
* its cumulative distribution and a reliability quantile (Fig. 5),
* the time to reach a failure mode — all polling units or all central voting
  units down (Fig. 6),
* the transient probability that a given number of voters have voted,
  converging to its steady-state value (Fig. 7).

The analytic results are cross-validated against simulation of the same
SM-SPN, exactly as in the paper.

Run:  python examples/voting_analysis.py [tiny|small|medium]
"""
from __future__ import annotations

import sys

import numpy as np

from repro import PassageTimeSolver, TransientSolver, build_kernel
from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_graph,
    build_voting_net,
    failure_mode_predicate,
    initial_marking_predicate,
    voters_done_predicate,
)
from repro.simulation import PetriSimulator, empirical_cdf


def main(config_name: str = "tiny") -> None:
    params = SCALED_CONFIGURATIONS[config_name]
    print(f"Voting system configuration '{config_name}': {params.label}")

    graph = build_voting_graph(params)
    kernel = build_kernel(graph)
    initial = graph.states_where(initial_marking_predicate(params))
    print(f"reachable states: {graph.n_states}, transitions: {graph.n_edges}\n")

    # ------------------------------------------------------------------
    # Passage: all voters processed (Fig. 4 / Fig. 5 analogue).
    # ------------------------------------------------------------------
    voters = PassageTimeSolver(
        kernel, initial, graph.states_where(all_voted_predicate(params))
    )
    mean = voters.mean()
    t_points = np.linspace(0.4 * mean, 1.8 * mean, 15)
    density = voters.density(t_points)
    cdf = voters.cdf(t_points)

    print(f"Passage: all {params.voters} voters processed")
    print(f"{'t':>8} {'f(t)':>12} {'F(t)':>10}")
    for t, f, F in zip(t_points, density, cdf):
        print(f"{t:8.2f} {f:12.6f} {F:10.4f}")
    print(f"mean completion time: {mean:.2f}")
    q985 = voters.quantile(0.9858, 0.2 * mean, 6.0 * mean)
    print(f"P(all voters processed within {q985:.1f}s) = 0.9858   "
          "(the paper's Fig. 5 quantile style)\n")

    # ------------------------------------------------------------------
    # Simulation overlay (the validation of Fig. 4).
    # ------------------------------------------------------------------
    simulator = PetriSimulator(build_voting_net(params))
    samples = simulator.sample_passage_times(
        all_voted_predicate(params), n_samples=3000, rng=2003
    )
    sim_cdf = empirical_cdf(samples, t_points)
    worst = float(np.max(np.abs(sim_cdf - cdf)))
    print(f"simulation cross-check on {len(samples)} replications: "
          f"max |F_analytic - F_simulated| = {worst:.3f}\n")

    # ------------------------------------------------------------------
    # Passage into a failure mode (Fig. 6 analogue).
    # ------------------------------------------------------------------
    failure = PassageTimeSolver(
        kernel, initial, graph.states_where(failure_mode_predicate(params))
    )
    fail_mean = failure.mean()
    fail_t = np.linspace(0.1 * fail_mean, 2.0 * fail_mean, 8)
    fail_density = failure.density(fail_t)
    print("Passage: fully-operational system -> complete failure of either pool")
    print(f"{'t':>10} {'f(t)':>14}")
    for t, f in zip(fail_t, fail_density):
        print(f"{t:10.1f} {f:14.8f}")
    print(f"mean time to failure mode: {fail_mean:.1f} "
          f"({fail_mean / mean:.1f}x the voting passage — a rare event, "
          "which is why the paper needed the analytic method for Fig. 6)\n")

    # ------------------------------------------------------------------
    # Transient distribution (Fig. 7 analogue).
    # ------------------------------------------------------------------
    count = max(2, params.voters // 4)
    transient = TransientSolver(
        kernel, initial, graph.states_where(voters_done_predicate(count))
    )
    steady = transient.steady_state()
    ts = np.linspace(0.5, 3.0 * mean, 12)
    probs = transient.probability(ts)
    print(f"Transient: P(at least {count} voters have voted by time t)")
    print(f"{'t':>8} {'P':>10}")
    for t, p in zip(ts, probs):
        print(f"{t:8.2f} {p:10.4f}")
    print(f"steady-state value: {steady:.4f} "
          f"(transient at t={ts[-1]:.1f} is {probs[-1]:.4f})")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "tiny")
