"""Tiered transform-value cache: in-memory LRU over the on-disk checkpoints.

The paper's pipeline caches every returned ``L(s)`` value "both in memory and
on disk".  The serving layer keeps that contract per *measure* (a transform
job digest): a bounded in-memory LRU answers repeated queries without any
I/O, and an optional :class:`~repro.distributed.CheckpointStore` underneath
both persists new values and warms the memory tier after a restart.  All
operations are thread-safe; disk writes go through ``CheckpointStore.merge``,
which itself holds a per-digest inter-process lock, so several server
processes may share one checkpoint directory.
"""
from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..distributed.checkpoint import CheckpointStore
from ..laplace.inverter import canonical_keys
from ..obs.metrics import get_metrics

__all__ = ["CacheLookup", "TieredResultCache"]

logger = logging.getLogger("repro.service")


@dataclass
class CacheLookup:
    """Outcome of one lookup: resolved values plus per-tier hit counts."""

    found: dict[complex, complex]
    missing: list[complex]
    memory_hits: int
    disk_hits: int


class TieredResultCache:
    """In-memory LRU of ``{canonical s: L(s)}`` maps in front of disk.

    Parameters
    ----------
    store:
        Optional on-disk checkpoint tier.  When present, a memory miss pulls
        the digest's checkpoint file into memory once, and every insert is
        merged back so values survive restarts.
    max_points:
        Bound on the total number of s-points held in memory.  Whole measures
        are evicted least-recently-used first; an evicted measure's disk tier
        is consulted again on its next lookup.
    """

    def __init__(self, store: CheckpointStore | None = None, max_points: int = 500_000):
        if max_points <= 0:
            raise ValueError("max_points must be positive")
        self._store = store
        self._max_points = max_points
        self._lock = threading.Lock()
        self._measures: OrderedDict[str, dict[complex, complex]] = OrderedDict()
        self._disk_loaded: set[str] = set()
        self._n_points = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.measures_evicted = 0

    # ------------------------------------------------------------------ API
    def checkpointed_points(self, digest: str) -> int:
        """Durable s-point count for one measure (0 without a disk tier)."""
        return self._store.count(digest) if self._store is not None else 0

    def lookup(self, digest: str, s_points) -> CacheLookup:
        """Resolve canonical s-points through the memory then disk tiers."""
        with self._lock:
            values = self._measures.get(digest)
            if values is None:
                values = {}
                self._measures[digest] = values
            else:
                self._measures.move_to_end(digest)
            found: dict[complex, complex] = {}
            missing: list[complex] = []
            memory_hits = 0
            for s in s_points:
                v = values.get(s)
                if v is not None:
                    found[s] = v
                    memory_hits += 1
                else:
                    missing.append(s)
            need_disk = bool(missing) and self._store is not None \
                and digest not in self._disk_loaded
            if need_disk:
                # Claim the load before releasing the lock so concurrent
                # lookups on this digest don't all parse the same file.
                self._disk_loaded.add(digest)
        disk_hits = 0
        if need_disk:
            # The file read + JSON parse can be many milliseconds for a large
            # measure; doing it outside the lock keeps memory-tier hits on
            # other measures (and this one) from stalling behind it.
            disk = self._store.load(digest)
            with self._lock:
                values = self._measures.get(digest)
                if values is None:  # evicted while loading; reinstate
                    values = {}
                    self._measures[digest] = values
                for key, v in zip(canonical_keys(list(disk)), disk.values()):
                    if key not in values:
                        values[key] = complex(v)
                        self._n_points += 1
                still_missing = []
                for s in missing:
                    v = values.get(s)
                    if v is not None:
                        found[s] = v
                        disk_hits += 1
                    else:
                        still_missing.append(s)
                missing = still_missing
        with self._lock:
            self.memory_hits += memory_hits
            self.disk_hits += disk_hits
            self.misses += len(missing)
            self._evict_locked(keep=digest)
        counter = get_metrics().counter(
            "repro_cache_points_total", "result-cache lookups by outcome tier",
            ("tier",),
        )
        if memory_hits:
            counter.inc(memory_hits, tier="memory")
        if disk_hits:
            counter.inc(disk_hits, tier="disk")
        if missing:
            counter.inc(len(missing), tier="miss")
        return CacheLookup(found, missing, memory_hits, disk_hits)

    def peek(self, digest: str, s_points) -> dict[complex, complex]:
        """Memory-tier re-check with no LRU or miss side effects.

        Used by the scheduler's single-flight double-check: a point whose
        owner completed between a request's :meth:`lookup` and its ticket
        registration is already in memory and must not be re-evaluated.
        Found points count as memory hits (they are exactly that); nothing
        else is touched, so the earlier lookup's miss accounting stands.
        """
        with self._lock:
            values = self._measures.get(digest)
            if not values:
                return {}
            found = {s: values[s] for s in s_points if s in values}
            self.memory_hits += len(found)
            return found

    def insert(self, digest: str, computed: dict[complex, complex]) -> None:
        """Store freshly computed values (keyed by canonical s, like
        :meth:`lookup`) in memory and, if present, on disk."""
        if not computed:
            return
        with self._lock:
            values = self._measures.get(digest)
            if values is None:
                values = {}
                self._measures[digest] = values
            self._measures.move_to_end(digest)
            for key, v in computed.items():
                if key not in values:
                    self._n_points += 1
                values[key] = complex(v)
            self._evict_locked(keep=digest)
        if self._store is not None:
            # Outside the LRU lock: the store holds its own per-digest
            # inter-process lock and may block on other writers.
            try:
                self._store.merge(digest, computed)
            except OSError as exc:
                # A full disk must not kill an in-memory computation; the
                # values stay in the memory tier, only their durability is lost.
                logger.warning(
                    "checkpoint merge failed for measure %s: %s "
                    "(continuing without durability)", digest, exc,
                )

    def stats(self) -> dict:
        with self._lock:
            return {
                "tiers": ["memory", "disk"] if self._store is not None else ["memory"],
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "measures_evicted": self.measures_evicted,
                "measures_in_memory": len(self._measures),
                "points_in_memory": self._n_points,
                "max_points": self._max_points,
            }

    # ------------------------------------------------------------ internals
    def _evict_locked(self, keep: str) -> None:
        while self._n_points > self._max_points and len(self._measures) > 1:
            digest, values = next(iter(self._measures.items()))
            if digest == keep:
                break  # never evict the measure being served
            self._measures.pop(digest)
            self._disk_loaded.discard(digest)  # re-warm from disk if it returns
            self._n_points -= len(values)
            self.measures_evicted += 1
