#!/usr/bin/env python3
"""The distributed master/worker analysis pipeline.

Reproduces the architecture of Section 4, spelling out the one evaluation
loop every surface of the library shares — plan -> scheduler/store ->
executor -> ``on_block``:

1. the plan fixes the s-points required by the Euler inversion of a
   voting-system passage time (5 t-points x 33 evaluations = 165 s-points,
   matching the paper's task count),
2. the scheduler resolves them through its result store and hands the rest
   to an executor — a serial backend, then a real multiprocessing pool,
3. every solved block lands in the store (memory and on-disk checkpoint)
   before the caller's ``on_block`` sees it, and the script demonstrates a
   resumed run that does no recomputation.

The scalability study of Section 5.3.3 (Table 2) is replayed by
``benchmarks/test_table2_scalability.py``.

Run:  python examples/distributed_pipeline.py
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.api import QueryPlan, measures
from repro.core.jobs import PassageTimeJob
from repro.distributed import CheckpointStore, MultiprocessingBackend, SerialBackend
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
        resolved, stats = evaluate(job, plan, backend=SerialBackend(), checkpoint=store)
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

    # ------------------------------------------------------------------
    # 2. Real multiprocessing speed-up on this machine.
    # ------------------------------------------------------------------
    workers = min(4, os.cpu_count() or 1)
    mp_backend = MultiprocessingBackend(processes=workers, block_size=4)
    blocks = []
    _, mp_stats = evaluate(job, plan, backend=mp_backend, on_block=blocks.append)
    mp_backend.close()
    print(f"\nmultiprocessing backend ({workers} workers, {len(blocks)} s-blocks): "
          f"{mp_stats.evaluation_seconds:.2f}s vs {stats.evaluation_seconds:.2f}s serial")


if __name__ == "__main__":
    main()
