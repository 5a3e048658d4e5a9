"""Fig. 7 — transient probability of a voter-progress condition vs its steady state.

The paper's Fig. 7 plots the transient distribution for the transit of five
voters from the initial marking to place p2 in system 0, together with the
steady-state value it converges to as t -> infinity.

Transient analysis is the most expensive measure in the paper's framework —
Eq. (7) needs one passage-time vector computation per *target state* per
s-point — so the default benchmark uses the tiny configuration (the same code
path; see README.md, "Paper vs. reproduction").  Both claims of the figure are
asserted: the transient curve approaches the independently computed
steady-state value, and the early transient differs substantially from it
(i.e. the transient analysis carries information the steady state cannot
provide).

The timed kernel is the transient-probability computation over the t-grid.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    initial_marking_predicate,
    voters_done_predicate,
)
from repro.petri import transient_solver

PARAMS = SCALED_CONFIGURATIONS["tiny"]
VOTERS_DONE = 2   # the "transit of k voters to p2" condition


@pytest.fixture(scope="module")
def solver(voting_graph_tiny):
    return transient_solver(
        voting_graph_tiny,
        initial_marking_predicate(PARAMS),
        voters_done_predicate(VOTERS_DONE),
        method="direct",
    )


@pytest.mark.benchmark(group="fig7-transient")
def test_fig7_transient_vs_steady_state(benchmark, solver, report):
    steady = solver.steady_state()
    mean_cycle = 10.0  # roughly one voting round for the tiny configuration
    t_points = np.concatenate([
        np.linspace(0.5, 3 * mean_cycle, 10),
        [10 * mean_cycle, 50 * mean_cycle, 200 * mean_cycle],
    ])

    probabilities = benchmark.pedantic(
        solver.probability, args=(t_points,), rounds=1, iterations=1
    )

    lines = [
        f"Fig. 7 — transient P(at least {VOTERS_DONE} voters have voted by t) "
        f"({PARAMS.label})",
        f"steady-state value: {steady:.4f}",
        f"{'t':>10} {'P(t)':>10}",
    ]
    lines += [f"{t:10.1f} {p:10.4f}" for t, p in zip(t_points, probabilities)]
    lines.append("")
    lines.append(
        f"|P(t_max) - steady state| = {abs(probabilities[-1] - steady):.4f}"
    )
    report("fig7_transient", lines)

    # --- Shape assertions -------------------------------------------------
    assert 0.0 < steady < 1.0
    # The transient converges to the steady-state value ...
    assert probabilities[-1] == pytest.approx(steady, abs=0.03)
    # ... and successive late-time points get closer to it ...
    gaps = np.abs(probabilities[-3:] - steady)
    assert gaps[2] <= gaps[0] + 1e-3
    # ... while the early transient is far from the long-run value.
    assert abs(probabilities[0] - steady) > 0.2
    # Probabilities are valid throughout.
    assert np.all(probabilities > -1e-6) and np.all(probabilities < 1.0 + 1e-6)

    benchmark.extra_info["steady_state"] = float(steady)
    benchmark.extra_info["target_states"] = len(solver.targets)
