#!/usr/bin/env python3
"""CI smoke test for the async job subsystem: durability + tenancy end-to-end.

One scenario, driven entirely through public surfaces (CLI serve subprocess,
``ServiceClient`` over HTTP):

1. boot ``semimarkov serve --workers 2`` with a checkpoint directory (which
   selects the sqlite job store), two tenants each submit an async passage
   query with ``async=true``;
2. both poll to ``done`` and their results equal a synchronous reply key for
   key outside ``statistics``; a malformed submission is a 400, not a job;
3. tenant isolation: each tenant lists exactly its own job and cannot read
   the other's (404); job metrics appear on ``/metrics``;
4. ``SIGKILL`` the server, assert the resident pool workers ``/v1/stats``
   reported died with it, restart it against the same checkpoint directory,
   and assert the finished jobs — records *and* results — survived, straight
   from the replayed sqlite log.

Run:  PYTHONPATH=src python scripts/jobs_smoke.py
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC_DIR)

from repro.models import SCALED_CONFIGURATIONS, voting_spec_text  # noqa: E402
from repro.service import ServiceClient, ServiceClientError  # noqa: E402

PORT = int(os.environ.get("JOBS_SMOKE_PORT", "8439"))
URL = f"http://127.0.0.1:{PORT}"
QUERY = dict(source="p1 == 4", target="p2 == 4", t_points=[5.0, 10.0, 20.0])


def start_server(checkpoint: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(PORT),
         "--workers", "2", "--checkpoint", checkpoint, "--log-level", "info"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    client = ServiceClient(URL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if client.health().get("status") == "ok":
                return server
        except (ServiceClientError, OSError):
            pass
        if server.poll() is not None:
            break
        time.sleep(0.2)
    out = server.stdout.read() if server.stdout else b""
    raise SystemExit("server did not become healthy:\n" + out.decode(errors="replace"))


def stop_server(server: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    if server.poll() is None:
        server.send_signal(sig)
    try:
        out, _ = server.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()
        out, _ = server.communicate()
    if out:
        sys.stderr.write("---- server log ----\n" + out.decode(errors="replace"))


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not a zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def expect_404(client: ServiceClient, job_id: str, who: str) -> None:
    try:
        client.job(job_id)
    except ServiceClientError as exc:
        assert exc.status == 404, f"{who}: expected 404, got {exc.status}"
    else:
        raise AssertionError(f"{who} can read a foreign tenant's job")


def main() -> int:
    import tempfile

    spec = voting_spec_text(SCALED_CONFIGURATIONS["tiny"])
    with tempfile.TemporaryDirectory() as checkpoint:
        server = start_server(checkpoint)
        try:
            print("== async submit, two tenants ==", flush=True)
            team_a = ServiceClient(URL, tenant="team-a")
            team_b = ServiceClient(URL, tenant="team-b")
            job_a = team_a.submit("passage", spec=spec, cdf=True, **QUERY)
            job_b = team_b.submit("passage", spec=spec, cdf=True, **QUERY)
            assert job_a["state"] in ("queued", "running"), job_a
            assert "result" not in job_a, "202 view must not carry a result"

            print("== poll to done ==", flush=True)
            final_a = team_a.wait(job_a["job"], timeout=300)
            final_b = team_b.wait(job_b["job"], timeout=300)
            assert final_a["state"] == "done", final_a
            assert final_b["state"] == "done", final_b
            sync = team_a.passage(spec=spec, cdf=True, **QUERY)
            for key in sync.keys() | final_a["result"].keys():
                if key != "statistics":
                    assert final_a["result"][key] == sync[key], f"async/sync differ on {key}"
            assert final_a["result"]["density"] == final_b["result"]["density"]

            print("== malformed submission ==", flush=True)
            team_c = ServiceClient(URL, tenant="team-c")
            try:
                team_c.submit("passage", spec=spec, quantile=2.0, **QUERY)
            except ServiceClientError as exc:
                assert exc.status == 400, f"expected 400, got {exc.status}"
            else:
                raise AssertionError("a malformed submission was accepted")
            assert team_c.jobs()["jobs"] == [], "a malformed submission left a job"

            print("== tenant isolation ==", flush=True)
            mine_a = [j["job"] for j in team_a.jobs()["jobs"]]
            mine_b = [j["job"] for j in team_b.jobs()["jobs"]]
            assert mine_a == [job_a["job"]], mine_a
            assert mine_b == [job_b["job"]], mine_b
            expect_404(team_a, job_b["job"], "team-a")
            expect_404(team_b, job_a["job"], "team-b")

            metrics = team_a.metrics_text()
            assert "# TYPE repro_jobs_total counter" in metrics
            assert "# TYPE repro_job_seconds histogram" in metrics
            assert 'repro_jobs_total{state="done",tenant="team-a"}' in metrics
            print("two tenants ran to done, listings disjoint, metrics ok",
                  flush=True)

            print("== SIGKILL + restart on the same checkpoint ==", flush=True)
            pool = team_a.stats()["pool"]
            assert pool["spawns"] == {"first": 1}, pool
            workers = pool["workers"]
            assert len(workers) == 2 and all(alive(pid) for pid in workers), pool
            stop_server(server, signal.SIGKILL)
            deadline = time.monotonic() + 2.0
            while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in workers if alive(pid)]
            assert not orphans, f"pool workers outlived their server: {orphans}"
            print(f"workers {workers} died with the server", flush=True)
        finally:
            if server.poll() is None:
                stop_server(server, signal.SIGKILL)

        server = start_server(checkpoint)
        try:
            survived = team_a.job(job_a["job"])
            assert survived["state"] == "done", survived
            assert survived["result"]["density"] == final_a["result"]["density"], \
                "result changed across restart"
            assert [j["job"] for j in team_b.jobs()["jobs"]] == [job_b["job"]]
            expect_404(team_a, job_b["job"], "team-a (after restart)")
            print("jobs, results and tenancy survived the restart", flush=True)
        finally:
            stop_server(server)

    print("jobs smoke test PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
