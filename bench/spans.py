"""The benchmark's own span recorder.

Spans are recorded from ``bench/`` files around calls into the package's
public functions; nothing under ``src/`` is touched.  Each span carries a
name, start, end, the span that caused it and the id of the op it belongs to.
Spans stay in memory and are written as Chrome trace-event JSON only on
request.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""
from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int
    name: str
    op: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; one parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: int = -1, **attributes):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            record = Span(
                index=len(self.spans),
                name=name,
                op=parent.op if parent is not None and op < 0 else op,
                parent=parent.index if parent is not None else None,
                thread=threading.get_ident(),
                start=time.perf_counter(),
                attributes=attributes,
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------- analysis
    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        own = {span.index: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def self_time_per_op(self) -> dict[str, float]:
        """Median over ops of each span name's summed self time within the op."""
        own = self.self_times()
        per_op: dict[str, dict[int, float]] = {}
        for span in self.spans:
            by_op = per_op.setdefault(span.name, {})
            by_op[span.op] = by_op.get(span.op, 0.0) + own[span.index]
        return {name: statistics.median(by_op.values()) for name, by_op in per_op.items()}

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    # --------------------------------------------------------------- export
    def to_chrome_trace(self) -> dict:
        origin = min((span.start for span in self.spans), default=0.0)
        return {
            "traceEvents": [
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": span.thread,
                    "args": {"op": span.op, "parent": span.parent, **span.attributes},
                }
                for span in self.spans
            ],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
