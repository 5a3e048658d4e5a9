"""The distributed master/worker analysis pipeline (Section 4 of the paper).

The paper's tool distributes work at the granularity of *s-points*: the
master decides which transform evaluations the Laplace inversion will need,
puts them on a global work queue, slaves pull s-values and run the iterative
passage-time algorithm for each, results are cached in memory and on disk
(checkpointing), and the master finally performs the numerical inversion.
No slave–slave communication is needed, which is what gives the near-linear
speedups of Table 2.

This package holds the executor half of that architecture, with one
modernisation: the unit of dispatch is an :class:`SBlock` (a memory-budgeted
batch of contour points) rather than a scalar s-value, and workers mmap one
kernel plane file (:mod:`repro.smp.plane`) instead of receiving a
pickled copy of the model.  The master half — which points are still needed,
the result cache "in memory and on disk", progress and cancellation — is the
one loop in :meth:`repro.service.scheduler.CoalescingScheduler.evaluate`,
shared by the api engines, the solver classes, the analysis service and the
job runner; it drives an executor through ``evaluate(job, s_points, *,
block_points=None, on_block=None)`` and everything lands in ``on_block``:

* :class:`SBlock` / :class:`SBlockQueue` — a dispatched block and the
  pool's completion/retry bookkeeping,
* :class:`CheckpointStore` — the on-disk cache keyed by a model/measure
  digest (the disk tier of :class:`repro.service.cache.TieredResultCache`),
* executors — :class:`SerialBackend` (blocks solved in the calling process)
  and :class:`MultiprocessingBackend` (real parallelism on this machine's
  cores, with watchdog, poison-block quarantine and rebuild-only-unfinished
  recovery).

The paper's Table 2 cluster is not an executor either: its timing model lives
next to the benchmark that draws it (``benchmarks/cluster_model.py``).
"""
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "queue": ["SBlock", "SBlockQueue"],
    "checkpoint": ["CheckpointStore"],
    "backends": ["Backend", "PoisonBlockError", "SerialBackend", "MultiprocessingBackend"],
})
