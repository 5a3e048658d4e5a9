#!/usr/bin/env python3
"""CI smoke test for the observability planes: tracing, metrics, progress.

Five checks, each exercising the same surface a user would:

1. **CLI tracing** — ``semimarkov passage ... --workers 2 --trace out.json
   --progress`` as a real subprocess; asserts the written Chrome/Perfetto
   trace is valid JSON containing the explore, plane-export, per-worker
   s-block (>= 2 distinct worker pids) and inversion spans, and that the
   progress line reached stderr.
2. **Live /metrics scrape** — boots ``semimarkov serve --workers 2`` as a
   subprocess, runs an HTTP passage query, scrapes ``GET /metrics`` and
   asserts the core metric names/types, ``GET /v1/progress/{digest}`` shows
   the finished run and ``/v1/stats`` carries version + build info.  Then
   three async jobs on the same server: the pool's life must reconcile —
   one spawn (``repro_pool_spawns_total{reason="first"} 1``), as many plane
   attaches as workers, the same two pids in ``/v1/stats`` before and after.
3. **Counter reconciliation** — in-process 2-worker solves of a passage
   and a transient measure on a fresh registry;
   ``repro_points_evaluated_total`` must equal the number of s-points the
   run reported computing and ``repro_block_seconds`` must count its solve
   blocks, exactly (a transient block solves one vector per target state but
   is still one block of its points).
4. **Pool lifetime in the trace** — three jobs on an in-process 2-worker
   service with the tracer on: the Perfetto trace holds one ``pool-spawn``
   span, inside the first job and before any worker's first ``s-block``.
5. **Overhead** — best-of-N block solves with tracing+metrics on vs off;
   prints the measured overhead and fails above a generous CI bound (the
   instrumentation is per-block, so the real number sits well under 2%).

Run:  PYTHONPATH=src python scripts/obs_smoke.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC_DIR)

from repro.models import SCALED_CONFIGURATIONS, voting_spec_text  # noqa: E402
from repro.service import ServiceClient, ServiceClientError  # noqa: E402

PORT = int(os.environ.get("OBS_SMOKE_PORT", "8437"))
#: generous CI bound; the measured number is printed and normally « 2%
MAX_OVERHEAD_FRACTION = 0.10

REQUIRED_SPANS = ("explore", "kernel-build", "plane-export", "s-block",
                  "s-block-solve", "lst-fill", "route", "drive", "inversion")
REQUIRED_METRICS = (
    "# TYPE repro_points_evaluated_total counter",
    "# TYPE repro_solve_iterations_total counter",
    "# TYPE repro_product_rows_total counter",
    "# TYPE repro_product_edges_total counter",
    "# TYPE repro_block_seconds histogram",
    "# TYPE repro_iterations_per_s_point histogram",
    "# TYPE repro_queries_total counter",
    "# TYPE repro_requests_total counter",
    "# TYPE repro_models_built_total counter",
    "# TYPE repro_worker_points_total counter",
    "# TYPE repro_worker_busy_fraction gauge",
    "# TYPE repro_pool_spawns_total counter",
    "# TYPE repro_worker_residency_total counter",
)
JOB_GRIDS = ([4.0, 9.0], [6.0, 13.0], [8.0, 17.0])


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def check_cli_trace(spec_path: str, trace_path: str) -> None:
    print("== CLI --trace / --progress ==", flush=True)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "passage", spec_path,
         "--source", "p1 == 4", "--target", "p2 == 4",
         "--t-points", "5", "10", "20", "--cdf",
         "--workers", "2", "--trace", trace_path, "--progress"],
        env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    sys.stderr.write(result.stderr)
    assert result.returncode == 0, f"CLI exited {result.returncode}"
    assert "# progress:" in result.stderr, "no progress line on stderr"
    assert "# trace:" in result.stderr, "no trace summary on stderr"

    with open(trace_path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, "empty span tree"
    names = {e["name"] for e in events}
    for required in REQUIRED_SPANS:
        assert required in names, f"span {required!r} missing from {sorted(names)}"
    master_pid = {e["pid"] for e in events if e["name"] == "explore"}
    worker_pids = {e["pid"] for e in events if e["name"] == "s-block"}
    assert len(worker_pids) >= 2, f"expected >= 2 worker pids, got {worker_pids}"
    assert not (worker_pids & master_pid), "worker spans carry the master pid"
    # spans form a tree: every parent id resolves
    by_id = {e["id"] for e in events}
    dangling = [e for e in events
                if e["args"].get("parent") and e["args"]["parent"] not in by_id]
    assert not dangling, f"dangling parent links: {dangling[:3]}"
    print(f"trace ok: {len(events)} spans, {len(worker_pids)} worker pids",
          flush=True)


def wait_for_health(client: ServiceClient, deadline_seconds: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            if client.health().get("status") == "ok":
                return
        except (ServiceClientError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit("server did not become healthy in time")


def check_live_metrics(spec: str) -> None:
    print("== live /metrics scrape ==", flush=True)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(PORT),
         "--workers", "2", "--log-level", "info"],
        env=subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    client = ServiceClient(f"http://127.0.0.1:{PORT}")
    try:
        wait_for_health(client)
        model = client.register_model(spec, name="voting-tiny")["model"]
        reply = client.passage(
            model=model, source="p1 == 4", target="p2 == 4",
            t_points=[5.0, 10.0, 20.0], cdf=True,
        )
        computed = reply["statistics"]["s_points_computed"]
        assert computed > 0, reply["statistics"]

        # request accounting lands just after the reply; give it a beat
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            text = client.metrics_text()
            if 'repro_requests_total{path="/v1/passage",status="200",tenant="default"}' in text:
                break
            time.sleep(0.1)
        for required in REQUIRED_METRICS:
            assert required in text, f"{required!r} missing from /metrics"
        for line in text.splitlines():
            if line.startswith("repro_points_evaluated_total "):
                assert float(line.split()[-1]) >= computed, line
                break
        else:
            raise AssertionError("repro_points_evaluated_total not exposed")

        progress = client.progress(model)
        assert progress["recent"], progress
        assert progress["recent"][-1]["finished"] is True

        stats = client.stats()
        assert stats["version"], stats
        assert stats["build"]["effective_cores"] >= 1, stats
        print(f"metrics ok: {len(text.splitlines())} exposition lines, "
              f"{computed} points computed; progress + build info ok",
              flush=True)

        # the pool's life: forked by the sync query above, shared by N jobs
        born = stats["pool"]
        assert born["generation"] == 1 and len(born["workers"]) == 2, born
        for t_points in JOB_GRIDS:
            job = client.submit("passage", model=model, source="p1 == 4",
                                target="p2 == 4", t_points=t_points)
            assert client.wait(job["job"], timeout=120)["state"] == "done"
        pool = client.stats()["pool"]
        assert pool == born and pool["spawns"] == {"first": 1}, (born, pool)
        series = _series(client.metrics_text())
        assert series['repro_pool_spawns_total{reason="first"}'] == 1, series
        misses = series['repro_worker_residency_total{kind="plane",outcome="miss"}']
        assert misses == len(pool["workers"]), (misses, pool)
        hits = series['repro_worker_residency_total{kind="plane",outcome="hit"}']
        blocks = sum(w["blocks"] for w in client.stats()["scheduler"]["workers"].values())
        assert hits + misses == blocks, (hits, misses, blocks)
        print(f"pool ok: {len(JOB_GRIDS)} jobs + 1 query on one spawn, "
              f"{int(misses)} plane attaches for {int(blocks)} blocks, "
              f"workers {pool['workers']} throughout", flush=True)
    finally:
        server.terminate()
        try:
            out, _ = server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            out, _ = server.communicate()
        if out:
            sys.stderr.write("---- server log ----\n" + out.decode(errors="replace"))


def _series(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` of a Prometheus exposition body."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines() if line and not line.startswith("#")
    }


def check_pool_trace(spec: str) -> None:
    print("== pool lifetime in the trace ==", flush=True)
    from repro.obs import get_tracer
    from repro.service import AnalysisService

    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    service = AnalysisService(workers=2)
    try:
        finished = []
        for t_points in JOB_GRIDS:
            job = service.submit("passage", dict(
                spec=spec, source="p1 == 4", target="p2 == 4", t_points=t_points,
            ))
            deadline = time.monotonic() + 120
            while service.job_view(job["job"])["state"] != "done":
                assert time.monotonic() < deadline, "job did not finish"
                time.sleep(0.01)
            finished.append(time.time() * 1e6)
        events = tracer.to_chrome_trace()["traceEvents"]
    finally:
        service.close()
        tracer.disable()
        tracer.clear()
    spawns = [e for e in events if e["name"] == "pool-spawn"]
    assert len(spawns) == 1, f"{len(spawns)} pool-spawn spans for one pool"
    (spawn,) = spawns
    assert spawn["pid"] == os.getpid() and spawn["args"]["reason"] == "first"
    assert spawn["ts"] + spawn["dur"] <= finished[0], "spawn outside the first job"
    blocks = [e for e in events if e["name"] == "s-block"]
    assert spawn["ts"] + spawn["dur"] <= min(e["ts"] for e in blocks)
    later = [e for e in blocks if e["ts"] > finished[0]]
    assert later and {e["pid"] for e in later} <= {e["pid"] for e in blocks
                                                   if e["ts"] <= finished[0]}
    print(f"trace ok: 1 pool-spawn ({spawn['dur'] / 1e3:.1f} ms) under the first "
          f"of {len(JOB_GRIDS)} jobs, {len(blocks)} s-blocks on "
          f"{len({e['pid'] for e in blocks})} resident workers", flush=True)


def _tiny_jobs():
    import numpy as np

    from repro.core.jobs import PassageTimeJob, TransientJob
    from repro.dnamaca import load_model
    from repro.petri import build_kernel, explore

    net = load_model(voting_spec_text(SCALED_CONFIGURATIONS["tiny"]))
    graph = explore(net)
    kernel = build_kernel(graph, allow_truncated=graph.truncated)
    marking = graph.marking_array()
    targets = np.flatnonzero(marking[:, net.place_index["p2"]] == 4)
    alpha = np.zeros(kernel.n_states)
    alpha[0] = 1.0
    occupied = np.flatnonzero(marking[:, net.place_index["p2"]] >= 1)
    return (
        PassageTimeJob(kernel=kernel, alpha=alpha, targets=targets),
        TransientJob(kernel=kernel, alpha=alpha, targets=occupied),
    )


def check_counter_reconciliation() -> None:
    print("== counter reconciliation ==", flush=True)
    from repro.distributed import MultiprocessingBackend
    from repro.obs import get_metrics, worker_stats_snapshot

    s_points = [complex(0.05 * (k + 1), 0.4 * k) for k in range(48)]
    registry = get_metrics()
    for job in _tiny_jobs():
        registry.reset()
        backend = MultiprocessingBackend(processes=2)
        try:
            values = backend.evaluate(job, s_points)
        finally:
            backend.close()
        counted = registry.get("repro_points_evaluated_total").value()
        assert counted == len(values) == len(s_points), (counted, len(s_points))
        total = sum(e["points"] for e in worker_stats_snapshot().values())
        assert total == len(s_points), (total, len(s_points))
        timed = registry.get("repro_block_seconds").snapshot_of()["count"]
        blocks = job.last_report["blocks"]
        assert timed == len(blocks), (timed, len(blocks))
        # the workers' product rows arrive whole, and no block advanced fewer
        # rows than the iterations it reports
        rows = registry.get("repro_product_rows_total").value(
            engine=job.last_report["engine"]
        )
        reported = sum(block["product_rows"] for block in blocks)
        assert rows == reported, (rows, reported)
        assert all(block["product_rows"] >= block["iterations"] for block in blocks)
        # the edge-point products arrive whole too: at most every edge of
        # every row advanced (the row form's frontier takes fewer)
        edges = registry.get("repro_product_edges_total").value(
            engine=job.last_report["engine"]
        )
        assert 0 < edges <= rows * job.kernel.n_transitions, (edges, rows)
        iterations = registry.get("repro_solve_iterations_total").value()
        print(f"{job.kind()} counters reconcile: {int(counted)} points evaluated == "
              f"{len(s_points)} s-points dispatched ({job.targets.size} target "
              f"state(s)), {timed} block timings == {len(blocks)} solve blocks, "
              f"{int(rows)} product rows for {int(iterations)} iterations, "
              f"{edges / (rows * job.kernel.n_transitions):.3f} of their edges taken",
              flush=True)


def check_overhead() -> None:
    print("== instrumentation overhead ==", flush=True)
    from repro.obs import get_metrics, get_tracer

    job, _ = _tiny_jobs()
    s_points = [complex(0.05 * (k + 1), 0.4 * k) for k in range(256)]
    tracer = get_tracer()

    def best_of(n: int) -> float:
        best = float("inf")
        for _ in range(n):
            started = time.perf_counter()
            job.evaluate_batch(s_points)
            best = min(best, time.perf_counter() - started)
        return best

    job.evaluate_batch(s_points)  # warm caches on both sides of the measure
    tracer.disable()
    baseline = best_of(5)
    tracer.enable()
    try:
        instrumented = best_of(5)
    finally:
        tracer.disable()
        tracer.clear()
        get_metrics().reset()
    overhead = instrumented / baseline - 1.0
    print(f"overhead: baseline {baseline*1e3:.2f} ms, instrumented "
          f"{instrumented*1e3:.2f} ms -> {overhead*100:+.2f}%", flush=True)
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"instrumentation overhead {overhead*100:.1f}% exceeds "
        f"{MAX_OVERHEAD_FRACTION*100:.0f}% CI bound"
    )


def main() -> int:
    spec = voting_spec_text(SCALED_CONFIGURATIONS["tiny"])
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "voting_tiny.dnamaca")
        with open(spec_path, "w") as f:
            f.write(spec)
        check_cli_trace(spec_path, os.path.join(tmp, "trace.json"))
    check_live_metrics(spec)
    check_counter_reconciliation()
    check_pool_trace(spec)
    check_overhead()
    print("observability smoke test PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
