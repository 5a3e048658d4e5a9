"""How much the benchmark runs: workloads, clients and fixed op counts.

Read by the parent harness and the harness tests, which never import
``repro``; ``workloads.py`` holds the code of each workload.

A run's measured phase is a **fixed number of ops**, so that two commits are
timed on the same ops whatever their speed (``serve_jobs`` gets slower with
every op it has served, see the README).  The counts are sized so that the
phase lasts about ``RUN_SECONDS`` at the seed commit on the 2-core sizing box.
They are split over ``ROUNDS`` fresh processes, each taking its own set-up,
and within a process into windows of ``window_ops`` ops with a machine-speed
reading between windows (``measure.calibrate``).
"""
from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` of ``BENCHMARK.json`` and the default of ``--seconds``
RUN_SECONDS = 10
#: fresh processes per run; each contributes one ``setup_s`` sample
ROUNDS = 2


@dataclass(frozen=True)
class Plan:
    name: str
    why: str
    clients: int
    #: ops between two machine-speed readings, about 0.5-0.8 s of work
    window_ops: int
    #: windows per round at ``RUN_SECONDS``
    windows: int

    @property
    def ops(self) -> int:
        """Measured ops of one run at ``RUN_SECONDS``."""
        return ROUNDS * self.windows * self.window_ops

    def windows_for(self, seconds: float) -> int:
        """Windows per round when asked for ``seconds`` instead of ``RUN_SECONDS``."""
        return max(1, round(self.windows * seconds / RUN_SECONDS))


PLANS = {
    plan.name: plan
    for plan in (
        Plan(
            "build_cold",
            "spec text to explored state space and SMP kernel on a fresh registry: "
            "dnamaca, petri and kernel construction do all the work, the solver none",
            clients=1, window_ops=3, windows=7,
        ),
        Plan(
            "solve_passage",
            "the paper's headline measure on its system 0, inline: pure iterative "
            "batch engine (embedded weights, LST fill, product x iterations, inversion)",
            clients=1, window_ops=3, windows=8,
        ),
        Plan(
            "solve_variants",
            "the solver layer used three other ways in one op: column-driver transient, "
            "factored engine on a high-fan-out kernel, sparse-LU routing at a far-tail t",
            clients=1, window_ops=2, windows=6,
        ),
        Plan(
            "serve_warm",
            "small warm HTTP query, every s-point a cache hit: zero solver work, so it "
            "isolates registry, cache, scheduler, per-query job construction, inversion, HTTP",
            clients=2, window_ops=20, windows=8,
        ),
        Plan(
            "serve_jobs",
            "async job on 2 workers with sqlite job log, mmap plane store and disk tier: "
            "job runner, scheduler, pool dispatch, plane attach, checkpoint merge around "
            "a minority of compute",
            clients=1, window_ops=2, windows=6,
        ),
    )
}
