"""Graceful drain: SIGTERM parks the in-flight job and exits cleanly.

``semimarkov serve`` under SIGTERM must stop admitting mutations (503 with a
Retry-After), let the running job reach its next s-block boundary, re-queue
it with every completed block checkpointed, and exit 0.  A second server
over the same checkpoint directory then picks the job up and finishes it
from disk.
"""
from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceClient, ServiceClientError

from .conftest import ON_OFF

SRC = Path(__file__).resolve().parents[2] / "src"

T_POINTS = [float(t) for t in np.linspace(0.5, 6.0, 12)]
QUERY = dict(spec=ON_OFF, source="on == 2", target="on == 0",
             t_points=T_POINTS, cdf=True)


def _start_server(checkpoint: Path, extra_env: dict | None = None, *, workers: int = 1):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    # small blocks => many drain points inside one solve
    env["REPRO_JOBS_BLOCK_POINTS"] = "4"
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--checkpoint", str(checkpoint), "--job-store", "sqlite",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError("server died before listening")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return process, f"http://127.0.0.1:{match.group(1)}"
    process.kill()
    raise RuntimeError("server never printed its listening banner")


def test_sigterm_drains_requeues_and_resumes(tmp_path):
    checkpoint = tmp_path / "ckpt"

    # --- first life: SIGTERM lands mid-job ---------------------------------
    # Each s-block is slowed so the drain window (signal -> accept-loop stop)
    # is wide enough to observe the 503 behaviour deterministically.
    process, url = _start_server(
        checkpoint, {"REPRO_FAULTS": "jobs.block=delay:seconds=0.4"}
    )
    refused = None
    try:
        client = ServiceClient(url, retries=0)
        job_id = client.submit("passage", **QUERY)["job"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            view = client.job(job_id)
            if view["state"] == "running" and view["progress"].get("blocks_done"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("job never started running")

        process.send_signal(signal.SIGTERM)
        time.sleep(0.1)  # the drain flag is set synchronously in the handler
        try:
            client.submit("passage", **QUERY)
        except ServiceClientError as exc:
            refused = exc
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    assert process.returncode == 0  # a drain is not a crash
    assert "received SIGTERM; draining" in output
    assert "drained; all job state persisted" in output
    # the submit raced the accept-loop stop: either it reached the server and
    # was refused with backpressure, or the socket was already closed
    assert refused is not None
    if refused.status != 0:
        assert refused.status == 503
        assert refused.retry_after is not None

    # --- second life: the parked job resumes from its checkpoints ----------
    process, url = _start_server(checkpoint)
    try:
        client = ServiceClient(url, tenant=None)
        final = client.wait(job_id, timeout=180, interval=0.2)
        assert final["state"] == "done"
        assert final["attempts"] == 2  # one per server life
        statistics = final["result"]["statistics"]
        assert statistics["s_points_from_disk"] > 0  # drained blocks reused
        progress = final["progress"]
        assert progress["points_done"] == progress["points_total"]
    finally:
        process.kill()
        process.wait(timeout=30)


def test_sigterm_reaps_the_resident_pool(tmp_path):
    """The workers of ``--workers 2`` live as long as the server — the same
    two across jobs — and not a moment longer: SIGTERM exits 0 with both
    reaped (the benchmark reads their ``ru_maxrss`` through the server's
    ``wait``), although they were forked under the server's drain handler."""
    process, url = _start_server(tmp_path / "ckpt", workers=2)
    try:
        client = ServiceClient(url, retries=0)
        pools = []
        for t_points in (T_POINTS[:3], T_POINTS[3:6]):
            job_id = client.submit("passage", **{**QUERY, "t_points": t_points})["job"]
            assert client.wait(job_id, timeout=120, interval=0.05)["state"] == "done"
            pools.append(client.stats()["pool"])
        assert pools[0] == pools[1] and pools[0]["spawns"] == {"first": 1}
        workers = pools[0]["workers"]
        assert len(workers) == 2 and all(Path(f"/proc/{pid}").exists() for pid in workers)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert process.returncode == 0
    assert "drained; all job state persisted" in output
    assert "Traceback" not in output
    assert not any(Path(f"/proc/{pid}").exists() for pid in workers)
