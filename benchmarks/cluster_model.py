"""A list-scheduling model of the paper's master/slave cluster (Table 2).

The paper times one passage analysis of 165 s-point tasks on 1/8/16/32
Pentium 4 slaves.  That hardware is not available here, so the experiment's
*shape* is replayed from measured per-s-point durations: the master spends
``dispatch`` seconds of serialised work per task (handing out the s-value,
caching the result), each task pays ``latency`` seconds of round trip, and
each slave runs one task at a time.  Slaves never talk to each other, so the
only efficiency losses are the serialised master work and the tail imbalance
of the last tasks — what the paper reports (efficiency 1.000 -> 0.712).
"""
from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: The paper's per-s-point tasks took seconds of C++ compute while its
#: master/network overheads were milliseconds.  Our tasks are much shorter in
#: absolute terms, so the overheads are fractions of the mean task duration,
#: which keeps the paper's compute-to-communication ratio.
DISPATCH_FRACTION = 0.004
LATENCY_FRACTION = 0.002


class ScalabilityRow(NamedTuple):
    """One row of Table 2."""

    slaves: int
    time_seconds: float
    speedup: float
    efficiency: float


def makespan(
    durations: Sequence[float], slaves: int, *, dispatch: float = 0.0, latency: float = 0.0
) -> float:
    """Wall-clock time to drain ``durations`` in queue order on ``slaves``
    slaves: the master serialises ``dispatch`` per task, the earliest-free
    slave then spends ``duration + latency``."""
    if slaves < 1:
        raise ValueError("slaves must be >= 1")
    if min(durations, default=0.0) < 0:
        raise ValueError("task durations must be non-negative")
    free = [0.0] * slaves
    master = finish = 0.0
    for duration in durations:
        master += dispatch
        end = max(master, heapq.heappop(free)) + duration + latency
        heapq.heappush(free, end)
        finish = max(finish, end)
    return finish


def scalability_table(
    durations: Sequence[float], slave_counts: Iterable[int] = (1, 8, 16, 32)
) -> list[ScalabilityRow]:
    """Time, speedup and efficiency per slave count; one slave is the
    baseline and the overheads scale with the mean task duration."""
    mean = float(np.mean(durations))
    overheads = {"dispatch": DISPATCH_FRACTION * mean, "latency": LATENCY_FRACTION * mean}
    baseline = makespan(durations, 1, **overheads)
    rows = []
    for count in slave_counts:
        elapsed = makespan(durations, count, **overheads)
        speedup = baseline / elapsed if elapsed > 0 else float("nan")
        rows.append(ScalabilityRow(count, elapsed, speedup, speedup / count))
    return rows
