#!/usr/bin/env python3
"""The repository's one benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--workload NAME] [--seed N] [--trace 1] [--smoke]

Each workload runs a fixed number of ops in fresh subprocesses: every process
takes its own set-up (interpreter start, ``import repro``, model build, server
start-up, 5 warm-up ops — ``setup_s``) and then its share of the measured
ops, in windows separated by a machine-speed reading.  ``--trace 0`` prints
the six end-to-end metrics; ``--trace 1`` re-runs the workload's ops under the
benchmark's span recorder and runs the standalone per-layer probes.  Without
``--workload`` every workload runs in turn.  The last line of output of each
workload is one JSON object ``{correct, attempted, failed, metrics}``; the
exit code is non-zero when an op or a verification failed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from plan import PLANS, ROUNDS, RUN_SECONDS

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 20260930
#: a smoke run takes a tenth of the ops, in one process
SMOKE_SHARE = 0.1
#: a round stops starting windows once it has taken this many times its share
#: of ``--seconds``: the op count is fixed, the cap only keeps a run finite
CAP_FACTOR = 3.0
#: plain/traced op pairs of a traced pass, as a share of the workload's ops
TRACED_PAIRS_SHARE = 0.15
MIN_TRACED_PAIRS = 3
CHILD_TIMEOUT_SECONDS = 150.0


def spawn(script: str, *arguments: str) -> dict:
    """Run one benchmark process to completion; its last output line is JSON."""
    command = [sys.executable, str(BENCH_DIR / script), *arguments]
    completed = subprocess.run(
        command, env=measure.child_env(), cwd=measure.ROOT, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(arguments)} exited {completed.returncode}")
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


class Harness:
    """One invocation: its arguments, its scratch directory and the header,
    which is printed once — with the first child's report, because only the
    children import the package."""

    def __init__(self, args, work_dir: Path):
        self.args = args
        self.work_dir = work_dir
        self.header_printed = False

    def child(self, workload: str, mode: str, count: int, *extra: str) -> dict:
        """One ``child.py`` process; prints what failed in it and returns its report."""
        run_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        report = spawn(
            "child.py", "--workload", workload, "--mode", mode, "--seed", str(self.args.seed),
            "--count", str(count), "--work-dir", str(run_dir), *extra,
            "--spawned-at", repr(time.monotonic()),
        )
        if not self.header_printed:
            self.header_printed = True
            print("# " + json.dumps({
                "commit": commit(), "seed": self.args.seed, "seconds": self.args.seconds,
                "calibration_reference_s": measure.CALIBRATION_REFERENCE_S,
                **report["environment"],
            }))
        for failure in report["failures"][:10]:
            print(f"# FAILED {failure}")
        if report.get("verified") is False:
            print(f"# VERIFICATION FAILED {report['verify_error']}")
        return report

    # -------------------------------------------------------------- end to end
    def end_to_end(self, workload: str) -> dict:
        plan = PLANS[workload]
        rounds = 1 if self.args.smoke else ROUNDS
        windows = plan.windows_for(self.args.seconds)
        cap = CAP_FACTOR * self.args.seconds / rounds
        reports = [
            self.child(workload, "measure", windows, "--cap-seconds", repr(cap),
                       "--verify", str(int(k == rounds - 1)))
            for k in range(rounds)
        ]
        n_samples = sum(len(w["samples"]) for report in reports for w in report["windows"])
        failed = sum(len(report["failures"]) for report in reports)
        values = {}
        if n_samples > 1:
            tail = measure.tail_percentile(n_samples)
            values = measure.end_to_end(reports, tail)
            raw = measure.end_to_end(reports, tail, at_reference_speed=False)
            readings = [r for report in reports for r in report["calibration"]]
            q1, median, q3 = statistics.quantiles(readings, n=4)
            noisy = q3 - q1 > measure.NOISY_CALIBRATION_SHARE * median
            print(f"# machine.calib_s before={readings[0]:.4f} after={readings[-1]:.4f} "
                  f"q1={q1:.4f} median={median:.4f} q3={q3:.4f} n={len(readings)} "
                  f"noisy={str(noisy).lower()}")
            print(f"# op_p50_s n={n_samples} op_iqr_s={values['op_iqr_s']:.6f} "
                  f"op_tail_s=p{tail} clients={plan.clients} rounds={rounds}")
            print("# as timed, before scaling to the reference machine speed: " + " ".join(
                f"{name}={raw[name]:.6g}" for name in END_TO_END_UNITS))
        return {
            "correct": bool(values) and failed == 0 and reports[-1]["verified"],
            "attempted": sum(report["attempted"] for report in reports),
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items() if name in values
            },
        }

    # --------------------------------------------------------------- per layer
    def traced(self, workload: str, probes: dict) -> dict:
        """The workload's traced pass, joined with the probes' values."""
        ops = PLANS[workload].ops * self.args.seconds / RUN_SECONDS
        pairs = max(MIN_TRACED_PAIRS, round(ops * TRACED_PAIRS_SHARE))
        report = self.child(
            workload, "traced", pairs,
            *(("--trace-out", self.args.trace_out) if self.args.trace_out else ()),
        )
        values = dict(probes)
        traced, plain = report["traced"], report["plain"]
        if traced:
            traced_op = statistics.median(traced)
            self_times = report["self_times"]
            layers = {name: t for name, t in self_times.items() if name != "op"}
            values["bench.traced_op_s"] = traced_op
            values["bench.trace_overhead_ratio"] = traced_op / statistics.median(plain)
            values["bench.trace_self_coverage"] = sum(layers.values()) / traced_op
            print(f"# traced pass of {workload}: {len(traced)} traced + {len(plain)} plain "
                  f"ops, self time per op (median), share of the traced op")
            for name, self_time in sorted(self_times.items(), key=lambda item: -item[1]):
                label = "op (outside every layer span)" if name == "op" else name
                print(f"#   {label:34s} {self_time:10.6f} s  {self_time / traced_op:6.1%}")
        failed = len(report["failures"])
        return {
            "correct": bool(traced) and failed == 0 and report["verified"],
            "attempted": 2 * pairs,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items() if name in values
            },
        }


def commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=measure.ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def shared_memory_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def report(workload: str, result: dict) -> bool:
    print(f"# {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(PLANS), default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales the fixed op counts, which are sized for the default "
                             f"of {RUN_SECONDS}; a run that falls far behind stops early")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass and per-layer probes instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the ops in one process: checks schema and "
                             "correctness only, the numbers are not comparable")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the spans as Chrome trace JSON here")
    args = parser.parse_args(argv)
    if args.smoke and args.trace:
        parser.error("--smoke checks the end-to-end run; the probes of --trace 1 have "
                     "no short form")
    if args.seconds is None:
        args.seconds = RUN_SECONDS * (SMOKE_SHARE if args.smoke else 1.0)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.smoke:
        print("# smoke mode: numbers not comparable")
    segments_before = shared_memory_segments()
    measure.WORK_DIR.mkdir(exist_ok=True)
    all_correct = True
    try:
        with tempfile.TemporaryDirectory(dir=measure.WORK_DIR) as work_dir:
            harness = Harness(args, Path(work_dir))
            # the probes do not depend on the workload: once per invocation
            probes = spawn("probes.py", "--work-dir", work_dir) if args.trace else None
            for workload in [args.workload] if args.workload else PLANS:
                result = (harness.traced(workload, probes) if args.trace
                          else harness.end_to_end(workload))
                all_correct &= report(workload, result)
        leaked = sorted(shared_memory_segments() - segments_before) + sorted(
            str(path) for path in measure.WORK_DIR.iterdir()
        )
    finally:
        if not any(measure.WORK_DIR.iterdir()):
            measure.WORK_DIR.rmdir()
    if leaked:
        print(f"# LEAKED {leaked}", file=sys.stderr)
        return 1
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
