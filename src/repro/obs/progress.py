"""Live solve progress fed by per-block completions.

A :class:`ProgressReporter` is created per evaluation run, told the total
work up front (``add_total``) and fed once per completed s-block
(``advance``).  It derives blocks done/total, points/s and an ETA, and
fans out to optional listeners: the CLI attaches a stderr renderer
(:func:`stderr_renderer`), the service registers reporters in a
:class:`ProgressBoard` keyed by model digest so ``GET /v1/progress/{digest}``
can show in-flight evaluations, and future async-job APIs can attach their
own hooks via :meth:`ProgressReporter.subscribe`.

Everything is stdlib-only, thread-safe, and free when unused: the scheduler
feeds a reporter only when it was given one (or a board).
"""
from __future__ import annotations

import sys
import threading
import time

__all__ = ["ProgressReporter", "ProgressBoard", "stderr_renderer"]


class ProgressReporter:
    """Tracks one evaluation run at s-block granularity."""

    def __init__(self, label: str = "", clock=time.monotonic):
        self.label = label
        self._clock = clock
        self._lock = threading.Lock()
        self._listeners: list = []
        self._started = clock()
        self._finished_at: float | None = None
        self.total_blocks = 0
        self.total_points = 0
        self.done_blocks = 0
        self.done_points = 0

    # ------------------------------------------------------------- feeding
    def add_total(self, blocks: int, points: int = 0) -> None:
        """Announce upcoming work (called before dispatch; additive)."""
        with self._lock:
            self.total_blocks += blocks
            self.total_points += points
        self._emit()

    def advance(self, blocks: int = 1, points: int = 0) -> None:
        """Record completed work (called once per finished s-block)."""
        with self._lock:
            self.done_blocks += blocks
            self.done_points += points
        self._emit()

    def finish(self) -> None:
        with self._lock:
            if self._finished_at is None:
                self._finished_at = self._clock()
        self._emit(final=True)

    # ------------------------------------------------------------- reading
    def snapshot(self) -> dict:
        """JSON-ready view: the service progress endpoint's payload."""
        with self._lock:
            now = self._finished_at or self._clock()
            elapsed = max(now - self._started, 1e-9)
            points_per_s = self.done_points / elapsed
            remaining = max(self.total_points - self.done_points, 0)
            if self._finished_at is not None:
                eta = 0.0
            elif points_per_s > 0 and self.total_points:
                eta = remaining / points_per_s
            else:
                eta = None
            return {
                "label": self.label,
                "blocks_done": self.done_blocks,
                "blocks_total": self.total_blocks,
                "points_done": self.done_points,
                "points_total": self.total_points,
                "elapsed_seconds": round(elapsed, 3),
                "points_per_second": round(points_per_s, 3),
                "eta_seconds": None if eta is None else round(eta, 3),
                "finished": self._finished_at is not None,
            }

    # ----------------------------------------------------------- listeners
    def subscribe(self, listener) -> "ProgressReporter":
        """Attach ``listener(snapshot_dict, final: bool)``; returns self."""
        with self._lock:
            self._listeners.append(listener)
        return self

    def _emit(self, final: bool = False) -> None:
        with self._lock:
            listeners = list(self._listeners)
        if not listeners:
            return
        snap = self.snapshot()
        for listener in listeners:
            try:
                listener(snap, final)
            except Exception:  # pragma: no cover - listeners must not break solves
                pass


class ProgressBoard:
    """The service-owned index of in-flight reporters, keyed by digest.

    Finished runs linger (bounded) so a client polling just after
    completion still sees the terminal snapshot.
    """

    def __init__(self, keep_finished: int = 32):
        self._lock = threading.Lock()
        self._active: dict[str, list[ProgressReporter]] = {}
        self._finished: list[tuple[str, dict]] = []
        self._keep = keep_finished

    def start(self, digest: str, label: str = "") -> ProgressReporter:
        reporter = ProgressReporter(label=label or digest)
        with self._lock:
            self._active.setdefault(digest, []).append(reporter)
        return reporter

    def done(self, digest: str, reporter: ProgressReporter) -> None:
        reporter.finish()
        with self._lock:
            live = self._active.get(digest, [])
            if reporter in live:
                live.remove(reporter)
            if not live:
                self._active.pop(digest, None)
            self._finished.append((digest, reporter.snapshot()))
            del self._finished[:-self._keep]

    def view(self, digest: str) -> dict:
        """The ``GET /v1/progress/{digest}`` payload."""
        with self._lock:
            active = [r.snapshot() for r in self._active.get(digest, [])]
            recent = [snap for d, snap in self._finished if d == digest]
        return {"digest": digest, "active": active, "recent": recent[-5:]}

    def overview(self) -> dict:
        with self._lock:
            return {
                "active": {
                    digest: [r.snapshot() for r in reporters]
                    for digest, reporters in self._active.items()
                },
                "recent": [
                    {"digest": d, **snap} for d, snap in self._finished[-5:]
                ],
            }


def stderr_renderer(stream=None, min_interval: float = 0.1):
    """A reporter listener painting a one-line progress bar on stderr.

    ``# progress: 12/32 blocks · 96/256 points · 41.2 pts/s · eta 3.9s``
    Repaints in place (carriage return) on a TTY, at most every
    ``min_interval`` seconds; always paints the final line with a newline.
    """
    stream = stream or sys.stderr
    # "last" starts unset, not 0.0: monotonic() may itself be below
    # min_interval (a freshly booted host), which would throttle line one.
    state = {"last": None, "painted": False}
    is_tty = bool(getattr(stream, "isatty", lambda: False)())

    def _listener(snap: dict, final: bool) -> None:
        now = time.monotonic()
        last = state["last"]
        if not final and last is not None and now - last < min_interval:
            return
        state["last"] = now
        eta = snap["eta_seconds"]
        line = (
            f"# progress: {snap['blocks_done']}/{snap['blocks_total']} blocks"
            f" · {snap['points_done']}/{snap['points_total']} points"
            f" · {snap['points_per_second']:.1f} pts/s"
        )
        if final:
            line += f" · done in {snap['elapsed_seconds']:.1f}s"
        elif eta is not None:
            line += f" · eta {eta:.1f}s"
        if is_tty and not final:
            stream.write("\r" + line.ljust(78))
            state["painted"] = True
        else:
            if is_tty and state["painted"]:
                stream.write("\r")
                state["painted"] = False
            stream.write(line + "\n")
        stream.flush()

    return _listener
