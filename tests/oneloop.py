"""A raw :class:`TransformJob` through the one evaluation loop.

The facade (``Model`` queries) and the solver classes build this for their
callers; tests that need a job of their own making — a random kernel, a
routing policy, a fault schedule — on a particular store and executor compose
it here, from the same parts.
"""
from __future__ import annotations

import glob
import os
import tempfile

from repro.api import QueryPlan, measures
from repro.laplace import get_inverter
from repro.service.cache import TieredResultCache
from repro.service.scheduler import CoalescingScheduler, QueryStatistics


class LoopRun:
    """One store + executor; ``density`` / ``cdf`` share it like one query's
    measures do, and ``stats`` accounts for everything evaluated so far."""

    def __init__(
        self, job, *, inversion="euler", inverter_options=None,
        backend=None, checkpoint=None,
    ):
        self.job = job
        self.inverter = get_inverter(inversion, **(inverter_options or {}))
        self.scheduler = CoalescingScheduler(
            TieredResultCache(checkpoint), backend=backend
        )
        self.stats = QueryStatistics()

    def _invert(self, t_points, cdf):
        plan = QueryPlan.derive(self.inverter, t_points)
        resolved = measures.gather(self.scheduler, self.job, plan, self.stats)
        return measures.invert(plan, resolved, self.stats, cdf=cdf)

    def density(self, t_points):
        return self._invert(t_points, cdf=False)

    def cdf(self, t_points):
        return self._invert(t_points, cdf=True)


def private_plane_dirs() -> set[str]:
    """The plane directories store-less pools of this process made and have
    not removed — what a leak check compares before and after a run."""
    return set(glob.glob(
        os.path.join(tempfile.gettempdir(), f"repro-planes-{os.getpid()}-*")
    ))
