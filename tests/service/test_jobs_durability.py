"""Kill the server mid-solve; the job must survive, resume and finish right.

The server process is crashed after its first completed s-block by the
``jobs.block`` fault point (``REPRO_FAULTS="jobs.block=crash:done=1"``).  A
second server started against the same checkpoint directory must

* replay the sqlite job log and re-queue the interrupted ``running`` job,
* resume it from the per-block checkpoints — points already solved come
  from the disk tier, only the remainder is computed (exact accounting,
  no loss, no double-count),
* produce a density identical (``<= 1e-10``) to an in-process synchronous
  solve of the same query.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.service import AnalysisService, ServiceClient

from .conftest import ON_OFF

SRC = Path(__file__).resolve().parents[2] / "src"

T_POINTS = [float(t) for t in np.linspace(0.5, 6.0, 12)]
QUERY = dict(spec=ON_OFF, source="on == 2", target="on == 0",
             t_points=T_POINTS, cdf=True)


def _start_server(checkpoint: Path, extra_env: dict | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    # small blocks => several checkpoint barriers inside one solve
    env["REPRO_JOBS_BLOCK_POINTS"] = "8"
    env.update(extra_env or {})
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--checkpoint", str(checkpoint), "--job-store", "sqlite"],
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


def test_job_survives_server_crash_and_resumes(tmp_path):
    checkpoint = tmp_path / "ckpt"

    # --- first life: crash after the first completed block -----------------
    # (the job's start is held back so the 202 reply to the submission is on
    # the wire before the crash: a first block takes about a millisecond)
    process, url = _start_server(
        checkpoint,
        {"REPRO_FAULTS": "service.gather=delay:seconds=0.3,limit=1;"
                         "jobs.block=crash:done=1"},
    )
    try:
        client = ServiceClient(url, retries=0)
        view = client.submit("passage", **QUERY)
        job_id = view["job"]
        assert process.wait(timeout=120) == 1  # the planted crash fired
    finally:
        if process.poll() is None:
            process.kill()

    # --- second life: same checkpoint dir, no crash hook -------------------
    process, url = _start_server(checkpoint)
    try:
        client = ServiceClient(url, tenant=None)
        final = client.wait(job_id, timeout=180, interval=0.2)
        assert final["state"] == "done"
        assert final["attempts"] == 2  # one per server life

        # exact points accounting on the resumed attempt: everything the
        # first life checkpointed arrives from disk, nothing is recomputed
        # and nothing is missing.
        statistics = final["result"]["statistics"]
        accounted = (
            statistics["s_points_computed"]
            + statistics["s_points_from_disk"]
            + statistics["s_points_from_memory"]
        )
        assert accounted == statistics["s_points_required"]
        assert statistics["s_points_from_disk"] > 0
        assert statistics["s_points_computed"] < statistics["s_points_required"]
        assert final["plan"]["points_checkpointed"] > 0

        progress = final["progress"]
        assert progress["points_done"] == progress["points_total"]

        # the jobs listing survived the crash too
        jobs = client.jobs()["jobs"]
        assert [j["job"] for j in jobs] == [job_id]
        assert jobs[0]["state"] == "done"
    finally:
        process.kill()
        process.wait(timeout=30)

    # --- parity with a synchronous in-process solve ------------------------
    sync = AnalysisService().passage(**{k: v for k, v in QUERY.items()
                                        if k != "cdf"}, include_cdf=True)
    for key in ("density", "cdf"):
        assert np.max(np.abs(
            np.asarray(final["result"][key]) - np.asarray(sync[key])
        )) <= 1e-10
