"""A ``python -m repro.cli serve`` subprocess owned by the benchmark."""
from __future__ import annotations

import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from measure import child_env

_START_TIMEOUT_SECONDS = 60.0
_STOP_TIMEOUT_SECONDS = 20.0


def free_port() -> int:
    """A port the kernel just handed out for a bind to 0."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """Start, address and stop one analysis server.

    ``workers > 1`` with a ``checkpoint`` directory selects the sqlite job
    log, the mmap'd plane store and the disk cache tier.  The request log
    (one line per request at the CLI's default level) goes to a file in
    ``work_dir``: an unread pipe would block the server once it fills.
    """

    def __init__(self, work_dir: Path, *, workers: int = 1, checkpoint: bool = False):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(self.port), "--workers", str(workers),
        ]
        if checkpoint:
            command += ["--checkpoint", str(work_dir / "checkpoint")]
        self._log = open(work_dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def client(self):
        from repro.service import ServiceClient

        # retries=0: a connection failure is a failed op, not something to hide
        return ServiceClient(self.url, retries=0)

    def _wait_healthy(self) -> None:
        from repro.service import ServiceClientError

        client = self.client()
        deadline = time.monotonic() + _START_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            try:
                if client.health().get("status") == "ok":
                    return
            except (ServiceClientError, OSError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become healthy")

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, SIGKILL as a last resort; reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(_STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode
