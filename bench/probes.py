"""Standalone per-layer probes: each times calls into one module's public
functions, for the layers a workload only reaches nested inside opaque calls.

Timed from outside with a 5-sample median; calls of 0.1 s and more get 3
samples and the two large-kernel probes one, so that a traced run fits the
driver's time budget.  Counts must repeat exactly, so they come from fixed
(unjittered) inputs.
Started by ``run.py`` in its own process; prints one JSON object
``{metric: value}`` as its last line of output.
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

sys.path.insert(0, str(measure.SRC))

import numpy as np  # noqa: E402

from repro import faults  # noqa: E402
from repro.api import Model, QueryPlan, build_job, resolve_state_sets  # noqa: E402
from repro.distributed import MultiprocessingBackend, SerialBackend  # noqa: E402
from repro.distributed.checkpoint import CheckpointStore  # noqa: E402
from repro.dnamaca import load_model, parse_model  # noqa: E402
from repro.jobs.store import SqliteBackend  # noqa: E402
from repro.laplace import EulerInverter, get_inverter  # noqa: E402
from repro.laplace.inverter import canonical_s  # noqa: E402
from repro.models import voting_spec_text, VotingParameters  # noqa: E402
from repro.obs.metrics import get_metrics  # noqa: E402
from repro.obs.trace import get_tracer  # noqa: E402
from repro.petri import build_kernel, explore_vectorized  # noqa: E402
from repro.service import AnalysisService  # noqa: E402
from repro.service.cache import TieredResultCache  # noqa: E402
from repro.service.registry import ModelRegistry  # noqa: E402
from repro.smp import (  # noqa: E402
    PassageTimeOptions,
    PlaneStore,
    SPointPolicy,
    kernel_content_digest,
    passage_transform_batch,
    passage_transform_direct_batch,
    source_weights,
    transient_transform_batch,
)

from spans import Recorder  # noqa: E402
from workloads import (  # noqa: E402
    COLD,
    SMALL,
    SOURCE,
    SYSTEM_0,
    TARGET,
    ServeJobs,
    ServeWarm,
    SolvePassage,
    invert_passage,
    service_pool_kernel,
)

SAMPLES = 5
#: samples of a call that takes 0.1 s or more
SLOW_SAMPLES = 3
#: no LU routing, no fallback: the iteration engines themselves
PURE_ITERATIVE = dict(predicted_iteration_limit=10**9, fallback_to_direct=False)
BASE_GRID = SolvePassage.base


def timed(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def median_of(call, samples: int = SAMPLES, warmup: bool = True) -> float:
    """Median time of ``call()`` after one untimed call: the first call of
    anything in a fresh process pays for page faults and lazy imports."""
    if warmup:
        call()
    return statistics.median(timed(call) for _ in range(samples))


def median_over(call, inputs, warmups: int = 1) -> float:
    """Median time of ``call(x)`` over distinct inputs (fresh s-points each);
    the first ``warmups`` inputs are run untimed."""
    inputs = list(inputs)
    for x in inputs[:warmups]:
        call(x)
    return statistics.median(timed(lambda x=x: call(x)) for x in inputs[warmups:])


def euler_points(t_points) -> np.ndarray:
    return QueryPlan.derive(EulerInverter(), np.asarray(t_points, dtype=float)).s_points


def fresh_grids(base, count: int, offset: float = 0.0) -> list[list[float]]:
    """``count`` distinct scalings of ``base`` — no two share an s-point."""
    return [[t * (1.0 + 0.004 * (k + 1) + offset) for t in base] for k in range(count)]


def paired_grids(count: int, shift: float = 0.0):
    """``count`` pairs of grids 1e-7 apart: the same work, but no shared s-point."""
    return zip(fresh_grids(BASE_GRID, count, shift), fresh_grids(BASE_GRID, count, shift + 1e-7))


def built(params: VotingParameters) -> Model:
    model = Model.from_spec(voting_spec_text(params), registry=ModelRegistry())
    model.entry
    return model


def point_iterations(diagnostics) -> int:
    return int(sum(d.matvec_count for d in diagnostics))


# ------------------------------------------------------------- build layers
def probe_build(out: dict) -> None:
    spec = voting_spec_text(COLD)
    out["dnamaca.parse_s"] = median_of(lambda: parse_model(spec))
    out["dnamaca.compile_s"] = median_of(lambda: load_model(spec))
    net = load_model(spec)
    out["petri.explore_s"] = median_of(lambda: explore_vectorized(net), SLOW_SAMPLES, warmup=False)
    graph = explore_vectorized(net)
    out["petri.build_kernel_s"] = median_of(lambda: build_kernel(graph))
    kernel = build_kernel(graph)
    out["petri.states"] = kernel.n_states
    out["petri.edges"] = kernel.n_transitions
    out["petri.explore_states_per_s"] = kernel.n_states / out["petri.explore_s"]


# ------------------------------------------------------------ solver layers
def probe_solver(out: dict, system0: Model) -> None:
    entry = system0.entry
    kernel, evaluator = entry.kernel, entry.evaluator
    sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
    alpha = source_weights(kernel, sources)
    out["smp.kernel.evaluator_init_s"] = median_of(kernel.evaluator)
    # The evaluator keeps its last 4 grids; until the 5th call evicts one,
    # each call maps fresh pages from the OS, which costs more than the fill.
    out["smp.kernel.lst_fill_s"] = median_over(
        lambda grid: evaluator.u_data_batch(euler_points(grid)),
        fresh_grids(BASE_GRID, 5 + SAMPLES), warmups=5,
    )
    n_points = euler_points(BASE_GRID).size
    out["smp.kernel.lst_fill_ns_per_entry"] = (
        out["smp.kernel.lst_fill_s"] / (n_points * kernel.n_transitions) * 1e9
    )
    out["smp.embedded.source_weights_s"] = median_of(lambda: source_weights(kernel, sources))

    # One fixed grid: the first call leaves its U(s) data in the evaluator's
    # grid cache, so the timed calls are the iteration alone (the fill is
    # smp.kernel.lst_fill_s) and the counts repeat exactly.
    s_points = euler_points(BASE_GRID)
    _, diagnostics = passage_transform_batch(evaluator, alpha, targets, s_points)
    out["smp.passage.solve_s"] = median_of(
        lambda: passage_transform_batch(evaluator, alpha, targets, s_points), SLOW_SAMPLES,
        warmup=False,
    )
    iterations = [d.iterations for d in diagnostics]
    out["smp.passage.point_iterations"] = point_iterations(diagnostics)
    out["smp.passage.us_per_point_iter"] = (
        out["smp.passage.solve_s"] / out["smp.passage.point_iterations"] * 1e6
    )
    out["smp.passage.iters_p50"] = statistics.median(iterations)
    out["smp.passage.iters_max"] = max(iterations)
    out["smp.passage.direct_solves"] = sum(d.direct_solves for d in diagnostics)
    out["smp.passage.unconverged_points"] = sum(not d.converged for d in diagnostics)

    few = s_points[:4]
    out["smp.linear.direct_point_s"] = median_of(
        lambda: passage_transform_direct_batch(evaluator, targets, few), SLOW_SAMPLES
    ) / few.size


def probe_large_kernels(out: dict) -> None:
    """The memory-bound regime no 10 s workload can afford (one sample each)."""
    ten_k = built(VotingParameters(40, 10, 3))
    sources, _ = resolve_state_sets(ten_k.entry, SOURCE, TARGET)
    out["smp.embedded.source_weights_10k_s"] = timed(
        lambda: source_weights(ten_k.entry.kernel, sources)
    )
    del ten_k

    big = built(VotingParameters(60, 25, 4))  # system 1 of Table 1: 92,340 states
    entry = big.entry
    sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
    alpha = np.zeros(entry.n_states)
    alpha[sources[0]] = 1.0
    s_points = euler_points([100.0])[:2]
    options = PassageTimeOptions(max_iterations=25)
    policy = SPointPolicy(**PURE_ITERATIVE)

    def solve():
        return passage_transform_batch(
            entry.evaluator, alpha, targets, s_points, options, policy=policy
        )

    _, diagnostics = solve()  # fills the grid's U(s) data; the next call iterates only
    out["smp.passage.us_per_point_iter_92k"] = (
        timed(solve) / point_iterations(diagnostics) * 1e6
    )


def probe_engines(out: dict) -> None:
    """Factored against batch on the service-pool kernel; transient column driver."""
    kernel = service_pool_kernel()
    alpha = np.zeros(kernel.n_states)
    alpha[0] = 1.0
    targets = [kernel.n_states - 1]
    s_points = euler_points((2.0, 6.0))

    def build():
        factored = kernel.evaluator().factored()
        factored.prewarm()
        return factored

    out["smp.factored.build_s"] = median_of(build)
    evaluator = kernel.evaluator()
    out["smp.factored.density_ratio"] = evaluator.factored().density_ratio()
    results = {}
    for engine in ("batch", "factored"):
        policy = SPointPolicy(engine=engine, **PURE_ITERATIVE)

        def solve(policy=policy):
            return passage_transform_batch(evaluator, alpha, targets, s_points, policy=policy)

        values, diagnostics = solve()
        results[engine] = (values, point_iterations(diagnostics), median_of(solve, SLOW_SAMPLES, warmup=False))
    deviation = float(np.abs(results["batch"][0] - results["factored"][0]).max())
    if deviation > 1e-10:
        raise AssertionError(f"factored deviates {deviation:.3g} from the batch engine")
    out["smp.factored.solve_s"] = results["factored"][2]
    out["smp.factored.us_per_point_iter"] = results["factored"][2] / results["factored"][1] * 1e6
    out["smp.factored.vs_batch_ratio"] = results["batch"][2] / results["factored"][2]

    small = built(SMALL)
    entry = small.entry
    sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
    alpha = source_weights(entry.kernel, sources)
    s_points = euler_points((2.0, 5.0, 10.0, 20.0))
    _, diagnostics = transient_transform_batch(entry.evaluator, alpha, targets, s_points)
    out["smp.transient.point_iterations"] = point_iterations(diagnostics)
    out["smp.transient.solve_s"] = median_of(
        lambda: transient_transform_batch(entry.evaluator, alpha, targets, s_points)
    )


# ------------------------------------------------------- inversion and facade
def probe_laplace(out: dict) -> None:
    t_points = np.asarray(BASE_GRID)
    out["laplace.plan_s"] = median_of(lambda: QueryPlan.derive(EulerInverter(), t_points))
    out["laplace.s_points_scheduled"] = QueryPlan.derive(EulerInverter(), t_points).n_evaluations
    for name in ("euler", "laguerre"):
        inverter = get_inverter(name)
        # an Erlang(2, 3) transform: inversion cost does not depend on the values
        values = {
            complex(s): (2.0 / (2.0 + s)) ** 3 for s in inverter.required_s_points(t_points)
        }
        out[f"laplace.{name}_invert_s"] = median_of(
            lambda: inverter.invert_values(t_points, values)
        )


def probe_api(out: dict, system0: Model) -> None:
    entry = system0.entry
    out["api.state_sets_s"] = median_of(lambda: resolve_state_sets(entry, SOURCE, TARGET))
    sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
    out["api.build_job_s"] = median_of(lambda: build_job(entry, "passage", sources, targets))

    def explicit(t_points) -> None:
        job = build_job(entry, "passage", *resolve_state_sets(entry, SOURCE, TARGET))
        inverter = get_inverter("euler")
        plan = QueryPlan.derive(inverter, t_points)
        invert_passage(inverter, plan, np.asarray(t_points), job.evaluate_many(plan.s_points))

    def facade(t_points) -> None:
        system0.passage(SOURCE, TARGET).density(t_points).cdf().run()

    out["api.facade_overhead_s"] = statistics.median(
        timed(lambda: facade(a)) - timed(lambda: explicit(b))
        for a, b in paired_grids(SLOW_SAMPLES)
    )


# ------------------------------------------------- plane, pool and checkpoint
def probe_distributed(out: dict, system0: Model, tmp: Path) -> None:
    evaluator = system0.entry.evaluator
    digest = kernel_content_digest(system0.entry.kernel)

    def export(k: int) -> None:
        PlaneStore(tmp / f"export{k}").export(evaluator)

    out["smp.plane.export_s"] = median_over(export, range(1 + SAMPLES))
    store = PlaneStore(tmp / "export0")
    out["smp.plane.attach_s"] = median_of(lambda: store.attach(digest).close())
    out["smp.plane.bytes"] = store.size_bytes()

    model = built(VotingParameters(30, 8, 3))
    entry = model.entry
    sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
    job = build_job(entry, "passage", sources, targets)
    s_points = [complex(s) for s in euler_points((35.0, 90.0))]
    pool = MultiprocessingBackend(processes=2, plane_store=str(tmp / "pool-planes"))
    try:
        # a fresh 2-process pool evaluating one s-point: spawn + attach + result
        out["distributed.pool_spawn_s"] = timed(lambda: pool.evaluate(job, s_points[:1]))
        started = time.perf_counter()
        reference = SerialBackend().evaluate(job, s_points)
        out["distributed.serial_eval_s"] = time.perf_counter() - started
        started = time.perf_counter()
        pooled = pool.evaluate(job, s_points)
        out["distributed.pool2_eval_s"] = time.perf_counter() - started
        workers = pool.last_worker_stats or {}
    finally:
        pool.close()
    deviation = max(abs(pooled[s] - reference[s]) for s in reference)
    if deviation > 1e-10:
        raise AssertionError(f"pool deviates {deviation:.3g} from the serial backend")
    out["distributed.pool2_speedup"] = (
        out["distributed.serial_eval_s"] / out["distributed.pool2_eval_s"]
    )
    out["distributed.pool2_busy_share"] = sum(
        w["busy_seconds"] for w in workers.values()
    ) / (2 * out["distributed.pool2_eval_s"])
    out["distributed.blocks"] = sum(w["blocks"] for w in workers.values())

    # merging one job's 66 points into a measure that already holds ten jobs'
    checkpoints = CheckpointStore(tmp / "checkpoints")
    held = {complex(k, 1.0): complex(k, -k) for k in range(660)}
    fresh = {complex(k, 2.0): complex(-k, k) for k in range(66)}
    merges = []
    for k in range(SAMPLES):
        checkpoints.merge(f"measure{k}", held)
        merges.append(timed(lambda: checkpoints.merge(f"measure{k}", fresh)))
    out["distributed.checkpoint_merge_s"] = statistics.median(merges)
    out["distributed.checkpoint_load_s"] = median_of(lambda: checkpoints.load("measure0"))
    out["distributed.checkpoint_bytes"] = checkpoints.size_bytes("measure0")


# ------------------------------------------------------------------- service
def probe_service(out: dict, tmp: Path) -> float:
    """In-process service layers; returns the warm in-process query time."""
    service = AnalysisService()
    try:
        spec = voting_spec_text(SYSTEM_0)
        digest = service.register_model(spec)["model"]
        out["service.registry_hit_s"] = median_of(lambda: service.registry.register(spec))
        entry = service.registry.get(digest)
        sources, targets = resolve_state_sets(entry, SOURCE, TARGET)
        job = build_job(entry, "passage", sources, targets)

        def scheduled(t_points) -> None:
            service.scheduler.evaluate(job, euler_points(t_points), eval_lock=entry.eval_lock)

        def bare(t_points) -> None:
            job.evaluate_many(euler_points(t_points))

        out["service.scheduler_overhead_s"] = statistics.median(
            timed(lambda: scheduled(a)) - timed(lambda: bare(b))
            for a, b in paired_grids(SLOW_SAMPLES)
        )

        request = dict(model=digest, source=SOURCE, target=TARGET, t_points=list(BASE_GRID))
        service.passage(**request)
        warm = median_of(lambda: service.passage(**request), 10)
        out["service.passage_warm_inproc_s"] = warm
    finally:
        service.close()

    keys = [canonical_s(complex(s)) for s in euler_points(BASE_GRID)]
    values = {key: complex(1.0, k) for k, key in enumerate(keys)}
    memory = TieredResultCache()
    inserts = [timed(lambda k=k: memory.insert(f"measure{k}", values)) for k in range(SAMPLES)]
    out["service.cache_insert_s"] = statistics.median(inserts)
    out["service.cache_lookup_s"] = median_of(lambda: memory.lookup("measure0", keys))
    store = CheckpointStore(tmp / "cache-tier")
    TieredResultCache(store=store).insert("measure", values)
    # a restarted server: every lookup on a fresh cache object reads the disk tier
    out["service.cache_disk_lookup_s"] = median_of(
        lambda: TieredResultCache(store=store).lookup("measure", keys)
    )
    return warm


def probe_http(out: dict, tmp: Path, warm_inproc: float) -> None:
    (tmp / "warm").mkdir()
    workload = ServeWarm(seed=0, work_dir=tmp / "warm")
    workload.primed_grids = 1  # one primed grid is enough to ask warm queries
    try:
        workload.setup()
        client = workload.client
        before = client.stats()
        out["service.http_health_s"] = median_of(client.health, 20)
        http_warm = statistics.median(workload.op(k) for k in range(20))
        after = client.stats()
    finally:
        workload.close()
    out["service.http_overhead_s"] = http_warm - warm_inproc
    lookups = {
        tier: after["cache"][tier] - before["cache"][tier]
        for tier in ("memory_hits", "disk_hits", "misses")
    }
    out["service.cache_memory_hit_ratio"] = lookups["memory_hits"] / sum(lookups.values())
    # since server start: the one primed grid and nothing else
    out["service.points_evaluated"] = after["scheduler"]["points_evaluated"]


def probe_jobs(out: dict, tmp: Path) -> None:
    (tmp / "jobs").mkdir()
    workload = ServeJobs(seed=0, work_dir=tmp / "jobs")
    recorder = Recorder()
    rows = []
    try:
        workload.setup()
        for k in range(SLOW_SAMPLES):  # one sample is a whole job, ~0.5 s
            view, _ = workload.run_job(*workload.fresh_measure(k, False), recorder)
            solved = view["result"]["statistics"]
            workers = solved.get("workers") or {}
            busy = sum(w["busy_seconds"] for w in workers.values()) or sum(
                block["seconds"] for block in solved.get("solve_blocks", ())
            )
            # what the blocks would take on a pool with no overhead at all
            compute = busy / workload.workers
            run = view["finished_at"] - view["started_at"]
            blocks = view["plan"]["n_blocks"]
            rows.append({
                "jobs.queue_wait_s": view["started_at"] - view["created_at"],
                "jobs.run_s": run,
                "jobs.poll_lag_s": view["observed_at"] - view["finished_at"],
                "jobs.blocks_per_job": blocks,
                "jobs.block_compute_s": compute / blocks,
                "jobs.block_overhead_s": (run - compute) / blocks,
            })
    finally:
        workload.close()
    for name in rows[0]:
        out[name] = statistics.median(row[name] for row in rows)
    out["jobs.submit_s"] = statistics.median(recorder.durations("client.submit"))

    backend = SqliteBackend(tmp / "append.sqlite")
    try:
        event = {"type": "progress", "at": 1.0, "progress": {"blocks_done": 1, "blocks_total": 8}}
        out["jobs.store_append_s"] = median_of(lambda: backend.append("job", event), 20)
    finally:
        backend.close()


# ------------------------------------------------------------ obs, faults, cli
def probe_obs(out: dict, system0: Model) -> None:
    tracer = get_tracer()

    def op(t_points) -> None:
        system0.passage(SOURCE, TARGET).density(t_points).cdf().run()

    off, on = [], []
    for a, b in paired_grids(SLOW_SAMPLES, shift=2e-7):
        off.append(timed(lambda: op(a)))
        tracer.enable()
        try:
            on.append(timed(lambda: op(b)))
        finally:
            tracer.disable()
            tracer.clear()
    out["obs.tracer_on_ratio"] = statistics.median(on) / statistics.median(off)
    out["obs.metrics_render_s"] = median_of(get_metrics().render_prometheus)

    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        faults.fire("worker.solve")
    out["faults.fire_disabled_ns"] = (time.perf_counter() - started) / calls * 1e9

    def import_cli() -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=measure.child_env(), check=True
        )

    out["cli.import_s"] = median_of(import_cli, SLOW_SAMPLES, warmup=False)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    get_tracer().disable()
    out: dict = {"machine.calib_s": measure.calibrate(), "machine.nproc": os.cpu_count()}
    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp_name:
        tmp = Path(tmp_name)
        system0 = built(SYSTEM_0)
        probe_build(out)
        probe_solver(out, system0)
        probe_large_kernels(out)
        probe_engines(out)
        probe_laplace(out)
        probe_api(out, system0)
        probe_distributed(out, system0, tmp)
        warm_inproc = probe_service(out, tmp)
        probe_http(out, tmp, warm_inproc)
        probe_jobs(out, tmp)
        probe_obs(out, system0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
