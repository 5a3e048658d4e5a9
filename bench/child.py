"""One workload in its own process: set-up, warm-up, then — depending on the
mode — the measured windows or the traced pass; then verification and
tear-down.  Started by ``run.py``; prints one JSON object as its last line of
output."""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

import measure

sys.path.insert(0, str(measure.SRC))

from spans import Recorder  # noqa: E402
from workloads import WARMUP_OPS, WORKLOADS, CheckFailed  # noqa: E402


def run_window(workload, first: int, count: int) -> tuple[list[float], list[str]]:
    """Ops ``first .. first + count - 1`` from ``workload.clients`` closed-loop
    clients: each sends its next op only after the previous one returned."""
    samples: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()
    next_index = first

    def client() -> None:
        nonlocal next_index
        while True:
            with lock:
                index = next_index
                if index >= first + count:
                    return
                next_index += 1
            try:
                elapsed = workload.op(index)
            except CheckFailed as exc:
                with lock:
                    failures.append(f"op {index}: {exc}")
            else:
                with lock:
                    samples.append(elapsed)

    # The first client is this thread, the one that ran the warm-up ops: a new
    # thread gets a new malloc arena, and its first ops would pay again for
    # the page faults the warm-up already paid for.
    others = [threading.Thread(target=client) for _ in range(workload.clients - 1)]
    for thread in others:
        thread.start()
    client()
    for thread in others:
        thread.join()
    return samples, failures


def measured_round(workload, windows: int, cap_seconds: float, reading: float) -> dict:
    """``windows`` windows of ``workload.plan.window_ops`` ops each, a
    machine-speed reading after every one (``reading`` is the one taken just
    before the first).  The op count is fixed; ``cap_seconds`` only stops a
    round that has fallen far behind (no further window starts after it), so
    that a run always ends."""
    pid = os.getpid()
    per_window = workload.plan.window_ops
    readings = [reading]
    done: list[dict] = []
    failures: list[str] = []
    started = time.perf_counter()
    for k in range(windows):
        if time.perf_counter() - started > cap_seconds:
            break
        cpu_before = measure.tree_cpu_seconds(pid)
        window_started = time.perf_counter()
        samples, failed = run_window(workload, k * per_window, per_window)
        wall = time.perf_counter() - window_started
        cpu = measure.tree_cpu_seconds(pid) - cpu_before
        readings.append(measure.calibrate())
        done.append({"samples": samples, "wall_s": wall, "cpu_s": cpu})
        failures += failed
    return {
        "calibration": readings,
        "windows": done,
        "failures": failures,
        "attempted": len(done) * per_window,
        # before verification, which solves with other engines in this process
        "own_peak_rss_kib": measure.peak_rss_kib(pid),
    }


def traced_pass(workload, pairs: int, trace_out: str | None) -> dict:
    """Alternate plain and traced ops so both see the same machine state."""
    recorder = Recorder()
    plain: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    for index in range(pairs):
        try:
            plain.append(workload.op(2 * index))
            with recorder.span("op", op=index) as span:
                workload.traced_op(2 * index + 1, recorder)
            traced.append(span.duration)
        except CheckFailed as exc:
            failures.append(f"traced op {index}: {exc}")
    if trace_out:
        recorder.write_chrome_trace(trace_out)
    return {
        "plain": plain,
        "traced": traced,
        "failures": failures,
        "self_times": recorder.self_time_per_op() if traced else {},
    }


def environment() -> dict:
    """What a reader needs to judge whether two outputs are comparable."""
    import numpy
    import scipy

    from repro.obs.metrics import effective_cores
    from repro.smp import SPointPolicy

    return {
        "nproc": os.cpu_count(),
        "effective_cores": effective_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "policy": repr(SPointPolicy()),
        "env": {**{name: os.environ.get(name) for name in measure.PINNED_ENV},
                "REPRO_FAULTS": os.environ.get("REPRO_FAULTS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("measure", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True,
                        help="measure: windows; traced: plain/traced op pairs")
    parser.add_argument("--cap-seconds", type=float, default=float("inf"))
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.obs.trace import get_tracer

    get_tracer().disable()
    workload = WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    out: dict = {"workload": workload.name, "mode": args.mode, "setup": []}
    mark = args.spawned_at

    def setup_segment_done() -> float:
        """Close a segment of the set-up with a machine-speed reading; the
        reading's own time belongs to no segment."""
        nonlocal mark
        seconds = time.monotonic() - mark
        reading = measure.calibrate()
        out["setup"].append({"seconds": seconds, "reading": reading})
        mark = time.monotonic()
        return reading

    setup_segment_done()  # interpreter start and imports
    try:
        workload.setup()
        setup_segment_done()
        for index in range(WARMUP_OPS):
            workload.op(index, warmup=True)
        reading = setup_segment_done()
        if args.mode == "measure":
            out.update(measured_round(workload, args.count, args.cap_seconds, reading))
        else:
            out.update(traced_pass(workload, args.count, args.trace_out))
        if args.verify:
            try:
                workload.verify()
                out["verified"] = True
            except CheckFailed as exc:
                out["verified"] = False
                out["verify_error"] = str(exc)
    finally:
        workload.close()
    # the server and, through it, the pool workers it started and reaped
    out["children_peak_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
