"""Ablation A1 — Euler vs. Laguerre inversion (Section 4's algorithm choice).

The paper uses the Euler algorithm when the density (or its derivatives)
contains discontinuities — e.g. models with deterministic or uniform firing
times — and the Laguerre algorithm for smooth densities, where its 400-point
s-grid is shared across all t-points.  This ablation quantifies that
trade-off on closed-form densities where the truth is known exactly, and on a
voting-model passage transform.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential, Gamma, Mixture, Uniform
from repro.laplace import EulerInverter, LaguerreInverter
from repro.models import SCALED_CONFIGURATIONS, all_voted_predicate, initial_marking_predicate
from repro.core import PassageTimeSolver

SMOOTH = Mixture([Erlang(1.5, 3), Gamma(2.5, 0.8), Exponential(0.7)], [0.4, 0.4, 0.2])
DISCONTINUOUS = Mixture([Uniform(0.5, 2.0), Uniform(2.5, 4.0)], [0.6, 0.4])
T_GRID = np.linspace(0.4, 6.0, 15)


@pytest.mark.benchmark(group="ablation-inversion")
@pytest.mark.parametrize("method", ["euler", "laguerre"])
def test_smooth_density_accuracy(benchmark, method, report):
    """Both algorithms recover a smooth density; Laguerre reuses one grid."""
    inverter = EulerInverter() if method == "euler" else LaguerreInverter()

    recovered = benchmark.pedantic(
        inverter.invert, args=(SMOOTH.lst, T_GRID), rounds=3, iterations=1
    )
    error = float(np.max(np.abs(recovered - SMOOTH.pdf(T_GRID))))
    evaluations = len(inverter.required_s_points(T_GRID))

    _SMOOTH_RESULTS[method] = (error, evaluations)
    benchmark.extra_info["max_abs_error"] = error
    benchmark.extra_info["s_point_evaluations"] = evaluations
    assert error < 1e-4

    if len(_SMOOTH_RESULTS) == 2:
        lines = [
            "Ablation A1a — smooth density (Erlang/Gamma/Exponential mixture)",
            f"{'method':>10} {'max |error|':>14} {'s-point evals':>14}",
        ]
        for name, (err, evals) in _SMOOTH_RESULTS.items():
            lines.append(f"{name:>10} {err:14.3e} {evals:14d}")
        lines.append("")
        lines.append("Laguerre's grid is t-point independent (400 evaluations regardless of m),")
        lines.append("Euler needs 33 evaluations per t-point but tolerates discontinuities.")
        report("ablation_a1_smooth", lines)


_SMOOTH_RESULTS: dict[str, tuple] = {}


@pytest.mark.benchmark(group="ablation-inversion")
def test_discontinuous_density_needs_euler(benchmark, report):
    """On a discontinuous density the Euler method stays usable while the
    Laguerre expansion degrades badly — the paper's stated reason for
    supporting both."""
    euler = EulerInverter()
    laguerre = LaguerreInverter()

    euler_recovered = benchmark.pedantic(
        euler.invert, args=(DISCONTINUOUS.lst, T_GRID), rounds=1, iterations=1
    )
    laguerre_recovered = laguerre.invert(DISCONTINUOUS.lst, T_GRID)
    truth = DISCONTINUOUS.pdf(T_GRID)

    # Compare away from the jump points, where the truth is well-defined.
    mask = np.array([
        all(abs(t - edge) > 0.3 for edge in (0.5, 2.0, 2.5, 4.0)) for t in T_GRID
    ])
    euler_err = float(np.max(np.abs(euler_recovered[mask] - truth[mask])))
    laguerre_err = float(np.max(np.abs(laguerre_recovered[mask] - truth[mask])))

    lines = [
        "Ablation A1b — discontinuous density (mixture of two uniforms)",
        f"{'method':>10} {'max |error| away from jumps':>28}",
        f"{'euler':>10} {euler_err:28.4f}",
        f"{'laguerre':>10} {laguerre_err:28.4f}",
    ]
    report("ablation_a1_discontinuous", lines)

    assert euler_err < 0.05
    assert laguerre_err > euler_err
    benchmark.extra_info["euler_error"] = euler_err
    benchmark.extra_info["laguerre_error"] = laguerre_err


@pytest.mark.benchmark(group="ablation-inversion")
def test_voting_passage_euler_vs_laguerre(
    benchmark, voting_graph_small, voting_kernel_small, report
):
    """On the voting model (uniform + deterministic-style firing times) the two
    algorithms agree on the bulk of the distribution; Euler is the default."""
    params = SCALED_CONFIGURATIONS["small"]
    sources = voting_graph_small.states_where(initial_marking_predicate(params))
    targets = voting_graph_small.states_where(all_voted_predicate(params))
    solver_euler = PassageTimeSolver(voting_kernel_small, sources, targets)
    solver_laguerre = PassageTimeSolver(
        voting_kernel_small,
        sources,
        targets,
        inversion="laguerre",
        inverter_options={"time_scale": 4.0},
    )
    mean = solver_euler.mean()
    ts = np.linspace(0.6 * mean, 1.6 * mean, 7)

    euler_density = benchmark.pedantic(
        solver_euler.density, args=(ts,), rounds=1, iterations=1
    )
    laguerre_density = solver_laguerre.density(ts)

    lines = [
        f"Ablation A1c — voting model passage density ({params.label})",
        f"{'t':>8} {'euler f(t)':>12} {'laguerre f(t)':>14}",
    ]
    lines += [
        f"{t:8.2f} {e:12.6f} {l:14.6f}" for t, e, l in zip(ts, euler_density, laguerre_density)
    ]
    report("ablation_a1_voting", lines)

    assert np.max(np.abs(euler_density - laguerre_density)) < 0.02
