"""Table 2 — time, speedup and efficiency of the distributed pipeline.

The paper measures the wall-clock time of one passage-time analysis (5
t-points under Euler inversion, i.e. 165 s-point evaluations, on voting
system 1) with 1, 8, 16 and 32 slave processors and reports near-linear
speedup (efficiency 1.000 / 0.965 / 0.876 / 0.712).

That cluster does not exist here, so the experiment is reproduced in two
parts (README.md, "Paper vs. reproduction"):

* a *real* parallel run on this machine's cores via the multiprocessing
  backend (limited to the available CPU count),
* the *simulated cluster* (``cluster_model.py``) replaying the measured
  per-s-point compute times on 1/8/16/32 slaves with master-dispatch and
  network overheads scaled to the paper's compute-to-communication ratio —
  this regenerates the shape of Table 2.

The timed kernel is the serial 165-task evaluation, one s-point per task as
each of the paper's slave tasks was: it provides both the baseline time and
the per-task durations.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from cluster_model import scalability_table
from repro.core import PassageTimeSolver
from repro.distributed import MultiprocessingBackend, SerialBackend
from repro.laplace import EulerInverter
from repro.models import SCALED_CONFIGURATIONS, all_voted_predicate, initial_marking_predicate

PARAMS = SCALED_CONFIGURATIONS["medium"]
SLAVE_COUNTS = (1, 8, 16, 32)
PAPER_ROWS = [
    (1, 549.08, 1.00, 1.000),
    (8, 71.11, 7.72, 0.965),
    (16, 39.16, 14.02, 0.876),
    (32, 24.10, 22.79, 0.712),
]


@pytest.fixture(scope="module")
def solver_on(voting_graph_medium, voting_kernel_medium):
    """The Table 2 measure on a given executor."""
    sources = voting_graph_medium.states_where(initial_marking_predicate(PARAMS))
    targets = voting_graph_medium.states_where(all_voted_predicate(PARAMS))
    return lambda backend: PassageTimeSolver(
        voting_kernel_medium, sources=sources, targets=targets, backend=backend
    )


@pytest.fixture(scope="module")
def t_points(voting_graph_medium):
    # 5 t-points, as in the paper's Table 2 run (165 s-point evaluations).
    return np.linspace(18.0, 45.0, 5)


@pytest.mark.benchmark(group="table2-scalability")
def test_table2_scalability(benchmark, solver_on, t_points, report):
    serial = SerialBackend()
    solver = solver_on(serial)
    job = solver.job
    job.evaluator  # built once, outside the first task's time
    s_points = EulerInverter().required_s_points(t_points)

    def serial_run():
        durations = []
        for s in s_points:
            start = time.perf_counter()
            serial.evaluate(job, [s])
            durations.append(time.perf_counter() - start)
        return durations

    durations = benchmark.pedantic(serial_run, rounds=1, iterations=1)
    assert len(durations) == len(set(s_points)) == 165

    rows = scalability_table(durations, SLAVE_COUNTS)

    # Real parallelism on the cores that are actually available here.
    workers = max(1, min(4, os.cpu_count() or 1))
    mp_backend = MultiprocessingBackend(processes=workers, block_size=8)
    result = solver_on(mp_backend).solve(t_points, include_cdf=False)
    mp_backend.close()
    real_parallel_seconds = result.statistics["evaluation_seconds"]

    lines = [
        "Table 2 — scalability of the s-point work-queue pipeline",
        f"workload: 5 t-points x 33 Euler evaluations = {len(durations)} s-point tasks "
        f"on the {PARAMS.label} voting model ({solver.kernel.n_states} states)",
        "",
        "simulated cluster (overheads scaled to the paper's compute/comms ratio):",
        f"{'slaves':>7} {'time (s)':>10} {'speedup':>9} {'efficiency':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.slaves:7d} {row.time_seconds:10.3f} {row.speedup:9.2f} {row.efficiency:11.3f}"
        )
    lines += [
        "",
        "paper's Table 2 (2 GHz P4 slaves, 100 Mbit Ethernet, system 1):",
        f"{'slaves':>7} {'time (s)':>10} {'speedup':>9} {'efficiency':>11}",
    ]
    for slaves, seconds, speedup, efficiency in PAPER_ROWS:
        lines.append(f"{slaves:7d} {seconds:10.2f} {speedup:9.2f} {efficiency:11.3f}")
    lines += [
        "",
        f"real multiprocessing run on this machine ({workers} workers): "
        f"{real_parallel_seconds:.2f}s wall-clock vs {sum(durations):.2f}s serial compute",
    ]
    report("table2_scalability", lines)

    # --- Shape assertions -------------------------------------------------
    efficiencies = {row.slaves: row.efficiency for row in rows}
    speedups = {row.slaves: row.speedup for row in rows}
    assert speedups[1] == pytest.approx(1.0)
    # Monotone speedup, decaying efficiency.
    assert speedups[8] > 6.0 and speedups[16] > speedups[8] and speedups[32] > speedups[16]
    assert efficiencies[8] > 0.9
    assert efficiencies[32] < efficiencies[16] < efficiencies[8] <= 1.0 + 1e-9
    assert efficiencies[32] > 0.5
    # Paper comparison: per-row efficiency within a modest absolute band.
    for slaves, _, _, paper_eff in PAPER_ROWS:
        assert efficiencies[slaves] == pytest.approx(paper_eff, abs=0.2)

    benchmark.extra_info["task_count"] = len(durations)
    benchmark.extra_info["efficiency_32"] = float(efficiencies[32])
    benchmark.extra_info["real_parallel_seconds"] = float(real_parallel_seconds)
