"""Checks of the benchmark harness itself (``pytest bench/``).

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/`` only):
these guard the instrument — names, input determinism, the fixed op counts and
the tail-percentile rule, the scaling to reference machine speed, span
arithmetic and the agreement between ``BENCHMARK.json`` and what ``run.py``
prints.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import measure  # noqa: E402

sys.path.insert(0, str(measure.SRC))

import metrics  # noqa: E402
from plan import PLANS, ROUNDS, RUN_SECONDS  # noqa: E402
from run import SMOKE_SHARE  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, jitter, op_grid, service_pool_kernel  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((measure.ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed():
    names = [name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER] + list(PLANS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_exactly_what_the_command_prints(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["command"] == ["python3", "bench/run.py"]
    assert declared["paths"] == ["bench"]
    assert [w["name"] for w in declared["workloads"]] == list(PLANS) == list(WORKLOADS)
    assert declared["run_seconds"] == RUN_SECONDS
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == PLANS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]]
    assert end_to_end == list(metrics.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert per_layer == list(metrics.PER_LAYER)
    assert len(per_layer) <= 128


def test_bounds_follow_the_contract(declared):
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60


def test_same_seed_gives_byte_identical_inputs():
    def inputs(seed: int) -> bytes:
        grids = [
            op_grid(seed, name, (15.0, 27.0, 60.0), index, warmup=warmup)
            for name in WORKLOADS for index in range(50) for warmup in (False, True)
        ]
        return json.dumps(grids).encode()

    assert inputs(20260930) == inputs(20260930)
    assert inputs(20260930) != inputs(20260931)
    draws = [jitter(7, "solve_passage", index) for index in range(200)]
    assert all(-0.05 <= u <= 0.05 for u in draws)
    assert len(set(draws)) == len(draws)
    # warm-up ops never reuse a measured op's grid
    assert jitter(7, "solve_passage", 0) != jitter(7, "solve_passage", 0, warmup=True)


def test_service_pool_kernel_is_reproducible():
    first, second = service_pool_kernel(40, 8), service_pool_kernel(40, 8)
    assert first.n_transitions == second.n_transitions
    assert (first.embedded_matrix() != second.embedded_matrix()).nnz == 0


def test_tail_percentile_rule():
    # the highest of p75/p90/p95/p98 with at least 10 samples beyond it
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(199) == 90
    assert measure.tail_percentile(200) == 95
    assert measure.tail_percentile(700) == 98
    assert measure.tail_percentile(17) == 75  # too few for any: the fallback


def test_op_counts_are_fixed_and_set_the_tail():
    counts = {
        name: (plan.ops, measure.tail_percentile(plan.ops)) for name, plan in PLANS.items()
    }
    assert counts == {
        "build_cold": (42, 75),
        "solve_passage": (48, 75),
        "solve_variants": (24, 75),
        "serve_warm": (320, 95),
        "serve_jobs": (24, 75),
    }
    for plan in PLANS.values():
        assert plan.ops == ROUNDS * plan.windows * plan.window_ops
        assert plan.windows_for(RUN_SECONDS) == plan.windows
        assert plan.windows_for(2 * RUN_SECONDS) == 2 * plan.windows
        assert plan.windows_for(SMOKE_SHARE * RUN_SECONDS) == 1


def round_report(speed: float) -> dict:
    """A round as ``child.py`` reports it, on a machine ``speed`` times slower
    than the reference."""
    reference = measure.CALIBRATION_REFERENCE_S
    return {
        "setup": [{"seconds": 0.5 * speed, "reading": reference * speed},
                  {"seconds": 1.5 * speed, "reading": reference * speed}],
        "calibration": [reference * speed] * 3,
        "windows": [
            {"samples": [0.1 * speed, 0.3 * speed], "wall_s": 0.4 * speed, "cpu_s": 0.5 * speed},
            {"samples": [0.2 * speed, 0.4 * speed], "wall_s": 0.6 * speed, "cpu_s": 0.7 * speed},
        ],
        "own_peak_rss_kib": 2048,
        "children_peak_rss_kib": 3072,
    }


def test_metrics_are_scaled_to_reference_machine_speed():
    at_reference = measure.end_to_end([round_report(1.0), round_report(1.0)], 75)
    assert at_reference["setup_s"] == pytest.approx(2.0)
    assert at_reference["op_p50_s"] == pytest.approx(0.25)
    assert at_reference["throughput_ops_s"] == pytest.approx(8 / 2.0)
    assert at_reference["cpu_s_per_op"] == pytest.approx(2.4 / 8)
    assert at_reference["peak_rss_mib"] == 3.0
    # a machine that is slower in one round, or throughout, reads the same
    for speeds in ((1.0, 1.4), (1.3, 1.3)):
        scaled = measure.end_to_end([round_report(speed) for speed in speeds], 75)
        assert scaled == pytest.approx(at_reference)
    as_timed = measure.end_to_end(
        [round_report(1.3), round_report(1.3)], 75, at_reference_speed=False
    )
    assert as_timed["op_p50_s"] == pytest.approx(0.25 * 1.3)
    assert as_timed["peak_rss_mib"] == 3.0


def test_percentile():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(samples, 0) == 1.0
    assert measure.percentile(samples, 50) == 3.0
    assert measure.percentile(samples, 75) == 4.0
    assert measure.percentile(samples, 100) == 5.0


def test_self_time_is_duration_minus_children():
    recorder = Recorder()
    for op in range(3):
        with recorder.span("op", op=op):
            with recorder.span("layer.a"):
                time.sleep(0.002)
                with recorder.span("layer.b"):
                    time.sleep(0.004)
            time.sleep(0.001)
    own = recorder.self_times()
    by_name = {span.name: span for span in recorder.spans if span.op == 0}
    a, b, op = by_name["layer.a"], by_name["layer.b"], by_name["op"]
    assert b.parent == a.index and a.parent == op.index and op.parent is None
    assert own[b.index] == pytest.approx(b.duration)
    assert own[a.index] == pytest.approx(a.duration - b.duration)
    assert own[op.index] == pytest.approx(op.duration - a.duration)
    per_op = recorder.self_time_per_op()
    assert sum(per_op.values()) == pytest.approx(
        sorted(recorder.durations("op"))[1], rel=0.5
    )
    events = recorder.to_chrome_trace()["traceEvents"]
    assert len(events) == 9 and all(event["ph"] == "X" for event in events)


def test_process_tree_accounting_sees_this_process():
    import os

    assert os.getpid() in measure.process_tree(os.getpid())
    assert measure.tree_cpu_seconds(os.getpid()) > 0
    assert measure.peak_rss_kib(os.getpid()) > 1000


def test_smoke_run_prints_the_contract_object():
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "solve_passage",
         "--seed", "11", "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=measure.ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "numbers not comparable" in completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for name, unit, *_ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
