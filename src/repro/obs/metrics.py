"""Counters, gauges and histograms with Prometheus text exposition.

One :class:`MetricsRegistry` per process (:func:`get_metrics`) is the single
source of pipeline statistics: the solver layer feeds it at *block/batch*
granularity (never per matvec), the multiprocessing backend merges each pool
worker's registry delta back through the :class:`~repro.distributed.queue.SBlock`
result path (:meth:`MetricsRegistry.diff` / :meth:`MetricsRegistry.absorb`),
and the service renders it at ``GET /metrics`` in the Prometheus text
exposition format.

This module also owns the one per-worker stats merge path
(:func:`merge_worker_stats`, formerly duplicated bookkeeping across the
pipeline, the api engines and the service scheduler) and the registry-backed
global view (:func:`worker_stats_snapshot`).

Everything here is stdlib-only and thread-safe.
"""
from __future__ import annotations

import json
import os
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "merge_worker_stats",
    "worker_stats_snapshot",
    "note_solve_block",
    "note_job_transition",
    "note_block_retry",
    "note_corrupt_artifact",
    "note_pool_spawn",
    "observe_job_seconds",
    "record_worker_block",
    "effective_cores",
]

#: default histogram bounds for second-valued observations (block solves,
#: request latencies): 1 ms .. 10 min
SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

#: default histogram bounds for iteration counts per s-point
ITERATIONS_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0,
)


def effective_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _Metric:
    """Shared label handling; subclasses define the value semantics."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _items(self) -> list[tuple[tuple, object]]:
        with self._lock:
            return list(self._values.items())


class Counter(_Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Gauge(_Metric):
    """A value that can go up and down (queue depth, busy fraction)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=SECONDS_BUCKETS):
        super().__init__(name, help, labelnames)
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")

    def _slot(self, key: tuple) -> dict:
        slot = self._values.get(key)
        if slot is None:
            slot = self._values[key] = {
                "buckets": [0] * (len(self.bounds) + 1),  # +1 for +Inf
                "sum": 0.0,
                "count": 0,
            }
        return slot

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key = self._key(labels)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            slot = self._slot(key)
            slot["buckets"][index] += 1
            slot["sum"] += value
            slot["count"] += 1

    def snapshot_of(self, **labels) -> dict:
        key = self._key(labels)
        with self._lock:
            slot = self._values.get(key)
            return json.loads(json.dumps(slot)) if slot else \
                {"buckets": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name -> metric mapping with exposition, snapshot and merge support."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------ creation
    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, labelnames, **kwargs)
                return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if tuple(labelnames) != metric.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, got {tuple(labelnames)}"
            )
        return metric

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=SECONDS_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """JSON-serialisable view: the one stats surface every layer shares.

        Label sets are keyed by the JSON array of their label values, so the
        snapshot round-trips losslessly through :meth:`absorb`.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out = {}
        for metric in metrics:
            entry: dict = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "values": {},
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            for key, value in metric._items():
                label_key = json.dumps(list(key))
                if isinstance(metric, Histogram):
                    entry["values"][label_key] = {
                        "buckets": list(value["buckets"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                else:
                    entry["values"][label_key] = value
            out[metric.name] = entry
        return out

    def diff(self, before: dict) -> dict:
        """The change since ``before`` (an earlier :meth:`snapshot`).

        Counters and histograms subtract; gauges keep their current value.
        Used by pool workers to ship per-block metric deltas to the master.
        """
        current = self.snapshot()
        delta: dict = {}
        for name, entry in current.items():
            prior = before.get(name, {"values": {}})
            values: dict = {}
            for label_key, value in entry["values"].items():
                old = prior["values"].get(label_key)
                if entry["type"] == "counter":
                    changed = value - (old or 0.0)
                    if changed:
                        values[label_key] = changed
                elif entry["type"] == "gauge":
                    if old is None or old != value:
                        values[label_key] = value
                else:  # histogram
                    if old is None:
                        changed = dict(value)
                    else:
                        changed = {
                            "buckets": [
                                c - p for c, p in zip(value["buckets"], old["buckets"])
                            ],
                            "sum": value["sum"] - old["sum"],
                            "count": value["count"] - old["count"],
                        }
                    if changed["count"]:
                        values[label_key] = changed
            if values:
                delta[name] = {**entry, "values": values}
        return delta

    def absorb(self, delta: dict | None) -> None:
        """Merge a snapshot/diff from another process into this registry."""
        for name, entry in (delta or {}).items():
            kind = entry.get("type", "counter")
            labelnames = tuple(entry.get("labels", ()))
            if kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    buckets=entry.get("bounds", SECONDS_BUCKETS),
                )
            else:
                metric = self._get_or_create(
                    _METRIC_KINDS[kind], name, entry.get("help", ""), labelnames
                )
            for label_key, value in entry["values"].items():
                key = tuple(json.loads(label_key))
                with metric._lock:
                    if kind == "counter":
                        metric._values[key] = metric._values.get(key, 0.0) + value
                    elif kind == "gauge":
                        metric._values[key] = float(value)
                    else:
                        slot = metric._slot(key)
                        buckets = value["buckets"]
                        if len(buckets) != len(slot["buckets"]):
                            raise ValueError(
                                f"histogram {name!r} bucket layout mismatch"
                            )
                        slot["buckets"] = [
                            a + b for a, b in zip(slot["buckets"], buckets)
                        ]
                        slot["sum"] += value["sum"]
                        slot["count"] += value["count"]

    # ---------------------------------------------------------- exposition
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``GET /metrics`` body)."""
        lines: list[str] = []
        for name, entry in sorted(self.snapshot().items()):
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['type']}")
            labelnames = entry["labels"]
            for label_key, value in sorted(entry["values"].items()):
                labelvalues = json.loads(label_key)
                rendered = _render_labels(labelnames, labelvalues)
                if entry["type"] == "histogram":
                    cumulative = 0
                    for bound, count in zip(entry["bounds"], value["buckets"]):
                        cumulative += count
                        le = _render_labels(labelnames + ["le"],
                                            labelvalues + [_format_bound(bound)])
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += value["buckets"][-1]
                    le = _render_labels(labelnames + ["le"], labelvalues + ["+Inf"])
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{rendered} {_format_value(value['sum'])}")
                    lines.append(f"{name}_count{rendered} {value['count']}")
                else:
                    lines.append(f"{name}{rendered} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _render_labels(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape_label(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else str(int(bound)) + ".0"


def _format_value(value: float) -> str:
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _METRICS


# ---------------------------------------------------------------------------
# Shared per-worker stats plumbing (the ONE merge path).
# ---------------------------------------------------------------------------


def merge_worker_stats(into: dict, update: dict | None) -> dict:
    """Accumulate per-worker ``{"blocks", "points", "busy_seconds"}`` counters.

    The single merge implementation behind every per-request / per-run view
    of worker activity (pipeline statistics, api engine statistics, query
    statistics): the same worker appearing in several evaluation rounds
    sums, new workers are added.  The process-global view lives in the
    metrics registry (:func:`record_worker_block` /
    :func:`worker_stats_snapshot`) and is fed exactly once per completed
    block by the dispatching backend.
    """
    for worker, entry in (update or {}).items():
        slot = into.setdefault(
            worker, {"blocks": 0, "points": 0, "busy_seconds": 0.0}
        )
        slot["blocks"] += entry.get("blocks", 0)
        slot["points"] += entry.get("points", 0)
        slot["busy_seconds"] = round(
            slot["busy_seconds"] + entry.get("busy_seconds", 0.0), 6
        )
    return into


def record_worker_block(
    worker, points: int, seconds: float, registry: MetricsRegistry | None = None,
    *, dispatch_wait: float | None = None,
) -> None:
    """Feed one completed s-block into the registry's per-worker counters and,
    when the worker reported it, the block's wait from submit to start into
    the dispatch-wait histogram."""
    registry = registry or _METRICS
    label = str(worker)
    if dispatch_wait is not None:
        registry.histogram(
            "repro_block_dispatch_wait_seconds",
            "wait of a dispatched s-block from submit to worker start",
        ).observe(dispatch_wait)
    registry.counter(
        "repro_worker_blocks_total", "s-blocks completed per worker", ("worker",)
    ).inc(1, worker=label)
    registry.counter(
        "repro_worker_points_total", "s-points served per worker", ("worker",)
    ).inc(points, worker=label)
    registry.counter(
        "repro_worker_busy_seconds_total", "busy wall-clock per worker", ("worker",)
    ).inc(seconds, worker=label)


def worker_stats_snapshot(registry: MetricsRegistry | None = None) -> dict:
    """Registry-backed ``{worker: {blocks, points, busy_seconds}}`` view."""
    registry = registry or _METRICS
    out: dict[str, dict] = {}
    for metric_name, field in (
        ("repro_worker_blocks_total", "blocks"),
        ("repro_worker_points_total", "points"),
        ("repro_worker_busy_seconds_total", "busy_seconds"),
    ):
        metric = registry.get(metric_name)
        if metric is None:
            continue
        for key, value in metric._items():
            slot = out.setdefault(
                key[0], {"blocks": 0, "points": 0, "busy_seconds": 0.0}
            )
            slot[field] = round(value, 6) if field == "busy_seconds" else int(value)
    return out


def note_solve_block(
    *,
    points: int,
    seconds: float,
    iterations: int = 0,
    product_rows: int = 0,
    product_edges: int = 0,
    direct_solves: int = 0,
    unconverged: int = 0,
    iteration_counts=None,
    engine: str | None = None,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one completed solve block (the instrumentation granularity).

    Called once per memory-budgeted s-block by the batched/factored solver
    loops and by the direct-LU path — never per matvec or per iteration —
    in whichever process ran the block; pool workers' increments are merged
    back into the master registry through the block result path.
    """
    registry = registry or _METRICS
    registry.counter(
        "repro_points_evaluated_total", "transform s-points evaluated"
    ).inc(points)
    registry.counter(
        "repro_solve_iterations_total", "iterative-solve iterations across all points"
    ).inc(iterations)
    if direct_solves:
        registry.counter(
            "repro_direct_solves_total", "sparse-LU direct solves"
        ).inc(direct_solves)
    if unconverged:
        registry.counter(
            "repro_unconverged_points_total",
            "points returned truncated at the iteration cap",
        ).inc(unconverged)
    registry.histogram(
        "repro_block_seconds", "wall-clock per solve block", ()
    ).observe(seconds)
    if engine:
        registry.counter(
            "repro_solve_blocks_total", "solve blocks per evaluation engine",
            ("engine",),
        ).inc(1, engine=engine)
        # Against repro_solve_iterations_total this is the wasted-work ratio:
        # rows of converged points that rode along until the block narrowed.
        registry.counter(
            "repro_product_rows_total",
            "point-rows advanced by the iterative product, per evaluation engine",
            ("engine",),
        ).inc(product_rows, engine=engine)
        # The edge-point products actually taken: below product_rows x nnz
        # by what the row form's frontier skipped.
        registry.counter(
            "repro_product_edges_total",
            "edge-point products taken by the iterative product, per evaluation engine",
            ("engine",),
        ).inc(product_edges, engine=engine)
    for count in iteration_counts or ():
        registry.histogram(
            "repro_iterations_per_s_point", "iterations needed per s-point",
            (), buckets=ITERATIONS_BUCKETS,
        ).observe(count)


# ---------------------------------------------------------------------------
# Async-job lifecycle series (fed by repro.jobs.store).
# ---------------------------------------------------------------------------


def note_job_transition(
    state: str, tenant: str, registry: MetricsRegistry | None = None
) -> None:
    """Count one job-lifecycle transition into ``state`` for ``tenant``."""
    registry = registry or _METRICS
    registry.counter(
        "repro_jobs_total", "async-job lifecycle transitions by state",
        ("state", "tenant"),
    ).inc(1, state=state, tenant=tenant)


def observe_job_seconds(
    kind: str, seconds: float, registry: MetricsRegistry | None = None
) -> None:
    """Record the running -> terminal wall-clock of one async job."""
    registry = registry or _METRICS
    registry.histogram(
        "repro_job_seconds", "async-job execution wall-clock", ("kind",)
    ).observe(seconds, kind=kind)


# ---------------------------------------------------------------------------
# Failure-domain series (fed by the fault defences: checksummed artifacts,
# pool rebuilds, the hung-worker watchdog).
# ---------------------------------------------------------------------------


def note_block_retry(
    reason: str, blocks: int = 1, registry: MetricsRegistry | None = None
) -> None:
    """Count s-blocks resubmitted after a pool break (``crashed`` / ``hung``)."""
    registry = registry or _METRICS
    registry.counter(
        "repro_block_retries_total",
        "s-blocks resubmitted after a worker-pool break, by break reason",
        ("reason",),
    ).inc(blocks, reason=reason)


def note_pool_spawn(reason: str, registry: MetricsRegistry | None = None) -> None:
    """Count one worker pool forked: the backend's ``first``, or the successor
    of one that ``crashed``, ``hung`` or could not ``attach`` its plane."""
    registry = registry or _METRICS
    registry.counter(
        "repro_pool_spawns_total",
        "worker pools forked, by what made the spawn necessary",
        ("reason",),
    ).inc(1, reason=reason)


def note_corrupt_artifact(
    kind: str, registry: MetricsRegistry | None = None
) -> None:
    """Count one quarantined on-disk artifact (``checkpoint`` / ``plane``)."""
    registry = registry or _METRICS
    registry.counter(
        "repro_corrupt_artifacts_total",
        "artifacts that failed their integrity check and were quarantined",
        ("kind",),
    ).inc(1, kind=kind)
