"""Measurement helpers of the benchmark: statistics, process-tree accounting,
the machine-speed reading and the pinned child environment.

Nothing here imports ``repro`` — the parent harness (``run.py``) and the
harness tests use this module without the package on the path.
"""
from __future__ import annotations

import functools
import os
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for checkpoints, planes and server logs; inside the checkout
#: (the benchmark writes nowhere else) and listed in ``.gitignore``
WORK_DIR = ROOT / ".bench_tmp"

#: one BLAS/OpenMP thread per process (an unpinned solve ran at 168 % CPU on
#: the 2-core box this was sized on) and a fixed hash seed
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: candidate tail percentiles, highest first
TAIL_CANDIDATES = (98, 95, 90, 75)
#: samples that must lie beyond the reported tail percentile
TAIL_MIN_BEYOND = 10

#: what ``calibrate()`` reads on the 2-core sizing box when nothing else runs;
#: times are reported as if the machine ran at this speed throughout
CALIBRATION_REFERENCE_S = 0.055
#: a run whose readings' interquartile range exceeds this share of their
#: median is marked noisy
NOISY_CALIBRATION_SHARE = 0.15

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("REPRO_FAULTS", None)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# ------------------------------------------------------------------ statistics
def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n_samples: int) -> int:
    """The highest of p98/p95/p90/p75 with >= 10 samples beyond it; p75 when
    the sample is too small for any of them (fewer than 40 ops)."""
    for p in TAIL_CANDIDATES:
        if n_samples * (100 - p) >= TAIL_MIN_BEYOND * 100:
            return p
    return TAIL_CANDIDATES[-1]


def end_to_end(rounds: list[dict], tail: int, *, at_reference_speed: bool = True) -> dict:
    """The six end-to-end metrics (and ``op_iqr_s``) of one run from the
    reports of its rounds.

    The box this benchmark was sized on changes speed by 20-40 % for seconds
    to minutes at a time, for every process at once.  Each window of ops is
    therefore bracketed by two machine-speed readings and its times are
    divided by their mean slowdown, and so is each segment of a set-up (the
    first, interpreter start and imports, has a reading only after it): the
    metrics are what the run would have taken at reference speed.
    ``at_reference_speed=False`` gives the times as the clock read them.
    """
    def scale(readings) -> float:
        """Mean slowdown of the machine, against the reference, at ``readings``."""
        if not at_reference_speed:
            return 1.0
        return statistics.mean(readings) / CALIBRATION_REFERENCE_S

    samples: list[float] = []
    wall = cpu = 0.0
    setups = []
    for report in rounds:
        segments = report["setup"]
        setups.append(sum(
            segment["seconds"] / scale([s["reading"] for s in segments[max(k - 1, 0):k + 1]])
            for k, segment in enumerate(segments)
        ))
        readings = report["calibration"]
        for k, window in enumerate(report["windows"]):
            by = scale(readings[k:k + 2])
            samples += [sample / by for sample in window["samples"]]
            wall += window["wall_s"] / by
            cpu += window["cpu_s"] / by
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(samples),
        "op_iqr_s": q3 - q1,
        "op_tail_s": percentile(samples, tail),
        "throughput_ops_s": len(samples) / wall,
        "cpu_s_per_op": cpu / len(samples),
        # the smaller round: where the allocator happens to place the cold
        # solves of a server's set-up moves its peak by 20 % (216 or 240-270
        # MiB on serve_warm), and a real increase shows in every round
        "peak_rss_mib": min(
            max(report["own_peak_rss_kib"], report["children_peak_rss_kib"]) for report in rounds
        ) / 1024.0,
    }


# ------------------------------------------------------- process-tree accounting
def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may contain spaces and parentheses; fields follow the
    # last closing parenthesis
    return text[text.rindex(")") + 2:].split()


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant, from one scan of ``/proc``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root_pid: int) -> float:
    """User+system CPU of a process tree, reaped descendants included.

    Each live process contributes its own time plus the time of the children
    it has waited for, so a worker that exits between two readings moves from
    its own row into its parent's ``cutime`` and is never lost.
    """
    ticks = 0
    for pid in process_tree(root_pid):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 of proc(5)
            ticks += sum(int(f) for f in fields[11:15])
    return ticks / _CLK_TCK


def peak_rss_kib(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# ----------------------------------------------------------------- calibration
@functools.cache
def _calibration_matrix():
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(12345)
    matrix = sparse.random(20_000, 20_000, density=5e-4, random_state=rng, format="csr")
    matrix @ np.ones(20_000)  # page the matrix in before the first timed reading
    return matrix


def calibrate() -> float:
    """Seconds for a fixed piece of work that uses nothing of the repository:
    100 sparse mat-vecs (native code) and a 400,000-step interpreter loop.
    A reading of the machine's speed, not of the program's."""
    import numpy as np

    matrix = _calibration_matrix()
    vector = np.ones(20_000)
    started = time.perf_counter()
    for _ in range(100):
        vector = matrix @ vector
        vector /= np.abs(vector).max() + 1.0
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - started
