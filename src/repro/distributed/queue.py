"""The master's work queue: dispatched s-blocks and their completion state."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SBlock", "SBlockQueue"]


@dataclass
class SBlock:
    """The unit of dispatch of the block-granular execution stack.

    PR 5's memory-budgeted s-block promoted from an engine-internal loop
    bound to a first-class work unit: a block id plus the *exact* contour
    points it covers.  A block is what gets pickled to a worker (with the
    few-hundred-byte :class:`~repro.core.jobs.JobSpec` and plane path that
    name its measure), what gets retried when a worker dies, and the
    granularity at which results are merged into the checkpoint — never the
    whole grid, never single scalars.
    """

    index: int
    s_points: np.ndarray

    def __post_init__(self):
        self.s_points = np.asarray(self.s_points, dtype=complex).ravel()

    @property
    def n_points(self) -> int:
        return int(self.s_points.size)


@dataclass
class SBlockQueue:
    """Completion bookkeeping for dispatched s-blocks.

    Built by :meth:`from_points`, which cuts a grid into blocks for both
    executors.  Tracks which blocks are outstanding so a broken pool can be
    rebuilt and only the unfinished blocks resubmitted, and records which
    worker served each block (plus its busy time) for the scalability
    statistics.
    """

    pending: dict[int, SBlock] = field(default_factory=dict)
    #: block index -> (worker label, busy seconds, points served)
    served_by: dict[int, tuple[str, float, int]] = field(default_factory=dict)
    results: dict[complex, complex] = field(default_factory=dict)
    #: block index -> times the block was resubmitted after a pool break
    retries: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_points(cls, s_points, block_size: int) -> "SBlockQueue":
        """The one place a grid is cut into blocks: ``ceil(n / block_size)``
        blocks, the points dealt round-robin (block ``i`` is
        ``s_points[i::n_blocks]``).  A plan lists its points t by t, so every
        block carries an even share of each t's slow and fast points; block
        sizes differ by at most one and none exceeds ``block_size``."""
        s_points = np.asarray(list(s_points), dtype=complex)
        n_blocks = -(-s_points.size // max(1, int(block_size)))
        queue = cls()
        for index in range(n_blocks):
            queue.pending[index] = SBlock(index, s_points[index::n_blocks])
        return queue

    @property
    def n_pending(self) -> int:
        return len(self.pending)

    def outstanding(self) -> list[SBlock]:
        return [self.pending[i] for i in sorted(self.pending)]

    def complete(
        self,
        block: SBlock,
        values: dict[complex, complex],
        *,
        worker: str = "?",
        duration: float = 0.0,
    ) -> None:
        self.pending.pop(block.index, None)
        self.served_by[block.index] = (str(worker), float(duration), block.n_points)
        self.results.update(values)

    def note_retry(self, indexes) -> None:
        """Record that these still-pending blocks are being resubmitted."""
        for index in indexes:
            self.retries[index] = self.retries.get(index, 0) + 1

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker block counts, points and busy time, keyed by worker label."""
        stats: dict[str, dict] = {}
        for worker, seconds, points in self.served_by.values():
            entry = stats.setdefault(
                worker, {"blocks": 0, "points": 0, "busy_seconds": 0.0}
            )
            entry["blocks"] += 1
            entry["points"] += points
            entry["busy_seconds"] += seconds
        for entry in stats.values():
            entry["busy_seconds"] = round(entry["busy_seconds"], 6)
        return stats
