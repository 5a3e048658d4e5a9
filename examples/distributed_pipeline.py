#!/usr/bin/env python3
"""The distributed master/worker analysis pipeline and its scalability.

Reproduces the architecture of Section 4 and the scalability study of
Section 5.3.3 (Table 2), spelling out the one evaluation loop every surface
of the library shares — plan -> scheduler/store -> executor -> ``on_block``:

1. the plan fixes the s-points required by the Euler inversion of a
   voting-system passage time (5 t-points x 33 evaluations = 165 s-points,
   matching the paper's task count),
2. the scheduler resolves them through its result store and hands the rest
   to an executor — a serial backend (recording per-task cost), a real
   multiprocessing pool, and, for the Table 2 shape, the recorded costs
   replayed on a simulated cluster with 1/8/16/32 slaves,
3. every solved block lands in the store (memory and on-disk checkpoint)
   before the caller's ``on_block`` sees it, and the script demonstrates a
   resumed run that does no recomputation.

Run:  python examples/distributed_pipeline.py
"""
from __future__ import annotations

import tempfile

import numpy as np

from repro.api import QueryPlan, measures
from repro.core.jobs import PassageTimeJob
from repro.distributed import (
    CheckpointStore,
    MultiprocessingBackend,
    SerialBackend,
    scalability_table,
)
from repro.laplace import get_inverter
from repro.models import (
    SCALED_CONFIGURATIONS,
    all_voted_predicate,
    build_voting_kernel,
    initial_marking_predicate,
)
from repro.service.cache import TieredResultCache
from repro.service.scheduler import CoalescingScheduler, QueryStatistics
from repro.smp import source_weights


def evaluate(job, plan, *, backend=None, checkpoint=None, on_block=None):
    """One trip round the loop: the plan's values and what they cost."""
    scheduler = CoalescingScheduler(TieredResultCache(checkpoint), backend=backend)
    stats = QueryStatistics()
    resolved = measures.gather(scheduler, job, plan, stats, on_block=on_block)
    return resolved, stats


def main() -> None:
    params = SCALED_CONFIGURATIONS["small"]
    kernel, graph = build_voting_kernel(params)
    sources = graph.states_where(initial_marking_predicate(params))
    targets = graph.states_where(all_voted_predicate(params))
    job = PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, sources), targets=targets
    )
    print(f"voting system {params.label}: {kernel.n_states} states")

    # The paper's Table 2 setting: 5 t-points under Euler inversion.
    plan = QueryPlan.derive(get_inverter("euler"), np.linspace(10.0, 40.0, 5))

    # ------------------------------------------------------------------
    # 1. Serial master run with on-disk checkpointing.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        store = CheckpointStore(checkpoint_dir)
        serial = SerialBackend(record_timings=True)
        resolved, stats = evaluate(job, plan, backend=serial, checkpoint=store)
        density = measures.invert(plan, resolved, stats)
        cdf = measures.invert(plan, resolved, stats, cdf=True)

        print(f"\nserial run: {stats.s_points_computed} s-point evaluations "
              f"in {stats.evaluation_seconds:.2f}s "
              f"(+ {stats.inversion_seconds:.3f}s inversion)")
        print(f"{'t':>8} {'f(t)':>12} {'F(t)':>10}")
        for t, f, F in zip(plan.t_points, density, cdf):
            print(f"{t:8.2f} {f:12.6f} {F:10.4f}")

        # Resume: a fresh store over the same directory serves every point.
        _, resumed = evaluate(job, plan, checkpoint=store)
        print(f"\nresumed run recomputed {resumed.s_points_computed} s-points "
              f"({resumed.s_points_from_disk} served from the checkpoint)")

        durations = serial.task_durations

    # ------------------------------------------------------------------
    # 2. Real multiprocessing speed-up on this machine.
    # ------------------------------------------------------------------
    import os

    workers = min(4, os.cpu_count() or 1)
    mp_backend = MultiprocessingBackend(processes=workers, block_size=4)
    blocks = []
    evaluate(job, plan, backend=mp_backend, on_block=blocks.append)
    mp_backend.close()
    serial_time = sum(durations)
    print(f"\nmultiprocessing backend ({workers} workers, {len(blocks)} s-blocks): "
          f"{mp_backend.last_wall_clock:.2f}s wall-clock vs {serial_time:.2f}s serial compute")

    # ------------------------------------------------------------------
    # 3. Table 2: simulated cluster at 1 / 8 / 16 / 32 slaves.
    # ------------------------------------------------------------------
    print("\nSimulated cluster scalability (Table 2 shape), using the measured "
          f"per-s-point durations of the serial run ({len(durations)} tasks):")
    print(f"{'slaves':>7} {'time (s)':>10} {'speedup':>9} {'efficiency':>11}")
    for row in scalability_table(durations, (1, 8, 16, 32)):
        print(f"{row.slaves:7d} {row.time_seconds:10.2f} {row.speedup:9.2f} {row.efficiency:11.3f}")
    print("\npaper's Table 2 for comparison: "
          "549.1s/1.00/1.000, 71.1s/7.72/0.965, 39.2s/14.02/0.876, 24.1s/22.79/0.712")


if __name__ == "__main__":
    main()
