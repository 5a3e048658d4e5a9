#!/usr/bin/env python3
"""CI smoke test: boot ``semimarkov serve`` and run one HTTP passage query.

Starts the server as a real subprocess (the same entry point a user runs),
registers the quickstart machine model (working/broken with Erlang failure
and uniform repair — the semi-Markov example from ``examples/quickstart.py``
expressed in the DNAmaca language), queries it over HTTP, and asserts the
JSON response is sane, that the same request as an async job stores the same
reply, and that a malformed submission is a 400 that records no job.  Exits
non-zero on any failure.

Run:  PYTHONPATH=src python scripts/server_smoke.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC_DIR)

from repro.service import ServiceClient, ServiceClientError  # noqa: E402

QUICKSTART_SPEC = r"""
\constant{N}{1}
\model{
  \place{working}{N}
  \place{broken}{0}
  \transition{fail}{
    \condition{working > 0}
    \action{ next->working = working - 1; next->broken = broken + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return erlangLT(2.0, 3, s); }
  }
  \transition{repair}{
    \condition{broken > 0}
    \action{ next->working = working + 1; next->broken = broken - 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return uniformLT(1.0, 2.0, s); }
  }
}
"""

PORT = int(os.environ.get("SMOKE_PORT", "8431"))


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


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(PORT)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    client = ServiceClient(f"http://127.0.0.1:{PORT}")
    try:
        wait_for_health(client)

        info = client.register_model(QUICKSTART_SPEC, name="quickstart-machine")
        assert info["states"] == 2, info
        print(f"registered model {info['model']} ({info['states']} states)")

        request = dict(
            model=info["model"],
            source="working == 1", target="broken == 1",
            t_points=[0.5, 1.0, 2.0, 4.0], cdf=True, quantile=0.95,
        )
        try:
            client.submit("passage", **{**request, "epsilon": -1})
        except ServiceClientError as exc:
            assert exc.status == 400, exc
        else:
            raise AssertionError("a malformed submission was accepted")
        assert client.jobs()["jobs"] == [], "a malformed submission left a job"

        reply = client.passage(**request)
        density, cdf = reply["density"], reply["cdf"]
        assert len(density) == 4 and len(cdf) == 4, reply
        assert all(f >= -1e-9 for f in density), density
        assert all(-1e-6 <= F <= 1.0 + 1e-6 for F in cdf), cdf
        assert cdf == sorted(cdf), cdf
        # Erlang(2,3) time-to-failure: mean 1.5, F(1.5) ~ 0.58.
        assert 0.3 < cdf[1] < 0.6, cdf
        assert 2.0 < reply["quantile"]["t"] < 6.0, reply["quantile"]
        print(f"passage query ok: cdf={['%.4f' % F for F in cdf]}, "
              f"p95={reply['quantile']['t']:.3f}")

        warm = client.passage(
            model=info["model"],
            source="working == 1", target="broken == 1",
            t_points=[0.5, 1.0, 2.0, 4.0], cdf=True,
        )
        assert warm["statistics"]["s_points_computed"] == 0, warm["statistics"]

        job = client.wait(client.submit("passage", **request)["job"], timeout=60)
        assert job["state"] == "done", job
        for key in reply.keys() | job["result"].keys():
            if key != "statistics":
                assert job["result"][key] == reply[key], f"job/sync differ on {key}"
        print("async job stored the synchronous reply")

        stats = client.stats()
        assert stats["queries"]["passage"] >= 2, stats
        assert stats["scheduler"]["points_evaluated"] > 0, stats
        print(f"stats ok: {stats['queries']['total']} queries, "
              f"{stats['scheduler']['points_evaluated']} s-points evaluated, "
              f"{stats['cache']['memory_hits']} memory hits")
        print("server smoke test PASSED")
        return 0
    finally:
        server.terminate()
        try:
            out, _ = server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            out, _ = server.communicate()
        if out:
            sys.stderr.write("---- server log ----\n" + out.decode(errors="replace"))


if __name__ == "__main__":
    raise SystemExit(main())
