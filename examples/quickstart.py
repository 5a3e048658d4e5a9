#!/usr/bin/env python3
"""Quickstart: passage-time density, CDF, quantiles and transients of a small SMP.

The model is a machine that alternates between *working* and *broken*:

* time-to-failure is Erlang(rate=2, shape=3)  (mean 1.5),
* repair time is Uniform(1, 2)                (mean 1.5, non-exponential!).

Because the repair time is not exponential this is a semi-Markov process, not
a Markov chain — exactly the class of model the paper targets.  The script
computes the analytic passage-time density and quantiles with the iterative
algorithm + Euler inversion, then cross-checks against simulation.

Run:  python examples/quickstart.py
"""
from __future__ import annotations

import numpy as np

from repro import PassageTimeSolver, SMPBuilder, TransientSolver
from repro.distributions import Erlang, Uniform
from repro.simulation import PassageTimeSample, simulate_passage_times


def build_machine_kernel():
    builder = SMPBuilder()
    builder.add_transition("working", "broken", 1.0, Erlang(2.0, 3))
    builder.add_transition("broken", "working", 1.0, Uniform(1.0, 2.0))
    return builder.build()


def main() -> None:
    kernel = build_machine_kernel()
    working = kernel.state_index("working")
    broken = kernel.state_index("broken")

    # ------------------------------------------------------------------
    # 1. Passage time working -> broken (time to failure).
    # ------------------------------------------------------------------
    solver = PassageTimeSolver(kernel, sources=[working], targets=[broken])
    t_points = np.linspace(0.1, 6.0, 13)
    density = solver.density(t_points)
    cdf = solver.cdf(t_points)

    print("Time-to-failure (working -> broken)")
    print(f"{'t':>6} {'f(t)':>12} {'F(t)':>12}")
    for t, f, F in zip(t_points, density, cdf):
        print(f"{t:6.2f} {f:12.6f} {F:12.6f}")

    print(f"\nmean time to failure        : {solver.mean():.4f}  (exact 1.5)")
    print(f"95th percentile of failure  : {solver.quantile(0.95, 0.1, 20.0):.4f}")
    print(f"99th percentile of failure  : {solver.quantile(0.99, 0.1, 20.0):.4f}")
    # The solver is a thin shim over the evaluation loop every surface shares
    # (plan -> scheduler/store -> executor); its store lives as long as it does.
    stats = solver.statistics
    print(f"s-points: {stats.s_points_computed} computed, "
          f"{stats.s_points_from_memory} re-served from the solver's store")

    # ------------------------------------------------------------------
    # 2. Cycle time working -> working (failure + repair).
    # ------------------------------------------------------------------
    cycle = PassageTimeSolver(kernel, sources=[working], targets=[working])
    print(f"\nmean failure+repair cycle   : {cycle.mean():.4f}  (exact 3.0)")
    print(f"P(cycle completes within 4) : {cycle.cdf([4.0])[0]:.4f}")

    # ------------------------------------------------------------------
    # 3. Transient availability: P(machine is working at time t).
    # ------------------------------------------------------------------
    transient = TransientSolver(kernel, sources=[working], targets=[working])
    ts = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 30.0])
    probs = transient.probability(ts)
    print("\nTransient availability P(working at t):")
    for t, p in zip(ts, probs):
        print(f"  t={t:6.1f}   {p:.4f}")
    print(f"steady-state availability   : {transient.steady_state():.4f}  (exact 0.5)")

    # ------------------------------------------------------------------
    # 4. Validation against simulation (the paper's Figs. 4/6 methodology).
    # ------------------------------------------------------------------
    samples = PassageTimeSample(
        simulate_passage_times(kernel, [working], [broken], n_samples=20_000, rng=42)
    )
    lo, hi = samples.mean_confidence_interval()
    print("\nSimulation cross-check (20k replications):")
    print(f"  simulated mean time to failure: {samples.mean():.4f}  (95% CI [{lo:.4f}, {hi:.4f}])")
    print(f"  simulated 99th percentile     : {samples.quantile(0.99):.4f}")
    print(f"  analytic  99th percentile     : {solver.quantile(0.99, 0.1, 20.0):.4f}")


if __name__ == "__main__":
    main()
