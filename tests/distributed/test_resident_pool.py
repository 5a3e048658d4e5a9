"""The worker pool belongs to the backend, not to a call.

One pool per :class:`MultiprocessingBackend`, forked by the first evaluate
and shared by every later one — the next call, a concurrent caller, a call
made after another one was cancelled — until it breaks or is closed.  These
tests pin the lifetime (same worker pids, no child left behind), what stays
resident in a worker, and the failure semantics a *shared* pool adds: a break
is charged to the call that caused it, the signal handlers and the fault plan
of the master reach (or do not reach) workers that were forked long before.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.api import Model, MultiprocessingEngine
from repro.core.jobs import PassageTimeJob
from repro.distributed import MultiprocessingBackend, PoisonBlockError, SerialBackend
from repro.models import SCALED_CONFIGURATIONS, voting_spec_text
from repro.obs import get_metrics, get_tracer
from repro.service import AnalysisService
from repro.smp import SPointPolicy, source_weights
from tests.oneloop import LoopRun, private_plane_dirs
from tests.smp.conftest import random_kernel

S_GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(autouse=True)
def clean_fault_plane(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(20030422)
    return random_kernel(rng, 60, density=0.4)


def _job(kernel, targets=(3, 4), policy=None):
    return PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, [0]), targets=list(targets),
        policy=policy,
    )


@pytest.fixture(scope="module")
def serial_reference(kernel):
    return SerialBackend().evaluate(_job(kernel), S_GRID)


@pytest.fixture
def backend():
    backend = MultiprocessingBackend(processes=2, block_size=4)
    yield backend
    backend.close()


def _assert_parity(values, reference):
    assert len(values) == len(reference)
    for s, expected in reference.items():
        assert values[s] == pytest.approx(expected, abs=1e-10)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestReuse:
    def test_three_evaluates_one_set_of_workers(self, kernel, serial_reference, backend):
        """... the first of them from a thread that ends, as an HTTP request
        handler's does: the workers' parent-death signal must not follow it."""
        first = threading.Thread(target=backend.evaluate, args=(_job(kernel), S_GRID))
        first.start()
        first.join(timeout=60)
        assert not first.is_alive()
        born = backend.pool_stats()
        assert len(born["workers"]) == 2 and born["generation"] == 1
        time.sleep(0.2)  # a signal on the thread's exit would have landed by now
        assert all(_alive(pid) for pid in born["workers"])
        for _ in range(2):
            job = _job(kernel)
            _assert_parity(backend.evaluate(job, S_GRID), serial_reference)
            assert set(map(int, job.last_report["workers"])) <= set(born["workers"])
        assert backend.pool_stats() == {**born, "spawns": {"first": 1}}

    def test_what_is_resident_is_not_attached_or_built_again(self, kernel, backend):
        def residency(**labels) -> float:
            return get_metrics().counter(
                "repro_worker_residency_total", "", ("kind", "outcome")
            ).value(**labels)

        before = {
            (kind, outcome): residency(kind=kind, outcome=outcome)
            for kind in ("plane", "job") for outcome in ("hit", "miss")
        }
        blocks = 0
        for job, grid in (
            (_job(kernel), S_GRID), (_job(kernel), S_GRID[:8]),
            (_job(kernel, targets=(5, 6)), S_GRID),
        ):
            backend.evaluate(job, grid)
            blocks += sum(w["blocks"] for w in job.last_report["workers"].values())
        moved = {
            key: residency(kind=key[0], outcome=key[1]) - was
            for key, was in before.items()
        }
        # a worker attaches the plane once and builds each of two measures once
        assert 1 <= moved["plane", "miss"] <= 2
        assert moved["plane", "miss"] + moved["plane", "hit"] == blocks
        assert 2 <= moved["job", "miss"] <= 4
        assert moved["job", "miss"] + moved["job", "hit"] == blocks

    def test_two_jobs_on_one_service_share_the_workers(self, tmp_path):
        spec = voting_spec_text(SCALED_CONFIGURATIONS["tiny"])
        service = AnalysisService(workers=2, checkpoint_dir=tmp_path)
        try:
            seen = []
            for t_points in ([5.0, 10.0], [7.0, 14.0]):
                job = service.submit(
                    "passage", dict(spec=spec, source="p1 == 4", target="p2 == 4",
                                    t_points=t_points),
                )
                deadline = time.monotonic() + 60
                while service.job_view(job["job"])["state"] != "done":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                seen.append(service.stats()["pool"])
            assert seen[0] == seen[1]
            assert seen[0]["spawns"] == {"first": 1} and len(seen[0]["workers"]) == 2
        finally:
            service.close()
        assert multiprocessing.active_children() == []


class TestSharing:
    def test_concurrent_calls_share_the_workers(self, kernel, serial_reference, backend):
        """More callers than cores, a short switch interval: every call gets
        the serial answer and no caller gets workers of its own."""
        results: dict[int, dict] = {}
        pids: set[int] = set()

        def call(k: int) -> None:
            job = _job(kernel)
            results[k] = backend.evaluate(job, S_GRID)
            pids.update(map(int, job.last_report["workers"]))

        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for values in results.values():
            _assert_parity(values, serial_reference)
        assert len(pids) <= backend.processes
        assert backend.pool_stats()["spawns"] == {"first": 1}

    def test_a_poison_block_fails_its_call_and_spares_the_other(
        self, kernel, monkeypatch
    ):
        """Call A's block 6 kills its worker; call B, queued behind it on the
        same pool, resubmits what the break cost it, blames none of its
        blocks and — ``max_retries=0`` — is not charged for the break."""
        poisoned = _job(kernel, policy=SPointPolicy(poison_after=1))
        bystander = _job(kernel, targets=(5, 6))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"worker.solve=crash:block=6,measure={poisoned.digest()};"
            "worker.solve=delay:seconds=0.1",
        )
        backend = MultiprocessingBackend(processes=2, block_size=2, max_retries=0)
        underway = threading.Event()
        errors = []

        def run_poisoned() -> None:
            try:  # blocks 0-5 take 0.3 s, then block 6 starts and dies
                backend.evaluate(
                    poisoned, S_GRID, on_block=lambda values: underway.set()
                )
            except BaseException as exc:  # noqa: BLE001 - asserted on below
                errors.append(exc)

        thread = threading.Thread(target=run_poisoned)
        try:
            thread.start()
            assert underway.wait(timeout=30)
            values = backend.evaluate(bystander, S_GRID)
            report = bystander.last_report
            thread.join(timeout=60)
            assert not thread.is_alive()
            spawns = backend.pool_stats()["spawns"]
        finally:
            backend.close()
        (error,) = errors
        assert isinstance(error, PoisonBlockError), error
        assert error.block_index == 6 and error.failures == 1
        _assert_parity(values, SerialBackend().evaluate(bystander, S_GRID))
        assert report["suspected"] == {}
        assert report["retries"]  # it did lose blocks to A's break
        assert spawns == {"first": 1, "crashed": 1}

    def test_the_watchdog_times_a_block_from_its_start_not_its_queueing(
        self, kernel, monkeypatch
    ):
        """One worker, held for two seconds by call A; call B's half-second
        watchdog must wait its turn, not kill A's worker."""
        slow = _job(kernel)
        quick = _job(
            kernel, targets=(5, 6),
            policy=SPointPolicy(watchdog_floor_seconds=0.5, watchdog_multiplier=3.0),
        )
        monkeypatch.setenv(
            "REPRO_FAULTS", f"worker.solve=delay:seconds=2,measure={slow.digest()}"
        )
        backend = MultiprocessingBackend(processes=1, block_size=16)
        thread = threading.Thread(target=backend.evaluate, args=(slow, S_GRID))
        try:
            backend.evaluate(quick, S_GRID[:1])  # fork the worker first
            thread.start()
            time.sleep(0.3)  # A's block is on the worker
            values = backend.evaluate(quick, S_GRID)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert backend.pool_stats()["spawns"] == {"first": 1}
        finally:
            backend.close()
        assert len(values) == len(S_GRID)
        assert slow.last_report["retries"] == quick.last_report["retries"] == {}


class TestCancel:
    def test_a_raising_observer_leaves_a_pool_that_computes_what_is_missing(
        self, kernel, backend
    ):
        class Cancelled(Exception):
            pass

        landed = []

        def cancel_after_two(values):
            landed.append(values)
            if len(landed) == 2:
                raise Cancelled

        t_grid = [0.5, 1.0]
        job = _job(kernel)
        reference = LoopRun(_job(kernel))
        expected = reference.density(t_grid)
        run = LoopRun(job, backend=backend)
        plan_points = reference.stats.s_points_computed
        from repro.api import QueryPlan, measures

        plan = QueryPlan.derive(run.inverter, t_grid)
        with pytest.raises(Cancelled):
            measures.gather(
                run.scheduler, job, plan, run.stats, on_block=cancel_after_two
            )
        kept = run.stats.s_points_computed
        assert 0 < kept < plan_points
        born = backend.pool_stats()
        assert born["spawns"] == {"first": 1}
        density = run.density(t_grid)
        assert run.stats.s_points_computed == plan_points  # only the rest
        assert run.stats.s_points_from_memory == kept
        assert backend.pool_stats() == born  # the same workers
        np.testing.assert_allclose(density, expected, rtol=0.0, atol=1e-10)


class TestClose:
    def test_close_is_idempotent_and_evaluate_starts_again(
        self, kernel, serial_reference
    ):
        planes_before = private_plane_dirs()
        backend = MultiprocessingBackend(processes=2, block_size=4)
        backend.close()
        backend.close()
        _assert_parity(backend.evaluate(_job(kernel), S_GRID), serial_reference)
        first = backend.pool_stats()["workers"]
        assert len(multiprocessing.active_children()) == 2
        backend.close()
        backend.close()
        assert multiprocessing.active_children() == []
        assert private_plane_dirs() <= planes_before
        _assert_parity(backend.evaluate(_job(kernel), S_GRID), serial_reference)
        stats = backend.pool_stats()
        assert stats["generation"] == 2 and stats["spawns"] == {"first": 2}
        assert not set(stats["workers"]) & set(first)
        backend.close()
        assert multiprocessing.active_children() == []
        assert private_plane_dirs() <= planes_before

    def test_an_engine_selected_by_name_leaves_no_child(self):
        model = Model.from_spec(voting_spec_text(SCALED_CONFIGURATIONS["tiny"]))
        query = model.passage("p1 == 4", "p2 == 4").density([5.0, 10.0]).quantile(0.9)
        inline = query.run()
        pooled = query.run(engine="multiprocessing", workers=2)
        assert multiprocessing.active_children() == []
        np.testing.assert_allclose(pooled.density, inline.density, rtol=0.0, atol=1e-10)
        assert pooled.quantiles[0.9] == pytest.approx(inline.quantiles[0.9], abs=1e-10)
        # the quantile's probes went to the workers like the grid did
        assert (
            sum(w["points"] for w in pooled.statistics["workers"].values())
            == pooled.statistics["s_points_computed"]
        )

    def test_an_engine_instance_keeps_its_workers_until_closed(self):
        model = Model.from_spec(voting_spec_text(SCALED_CONFIGURATIONS["tiny"]))
        query = model.passage("p1 == 4", "p2 == 4").density([5.0, 10.0])
        with MultiprocessingEngine(workers=2) as engine:
            first = query.run(engine).statistics["workers"]
            second = query.density([6.0, 12.0]).run(engine).statistics["workers"]
            assert set(second) <= set(first)
            assert engine.backend.pool_stats()["spawns"] == {"first": 1}
        assert multiprocessing.active_children() == []


class TestPoolTelemetry:
    def test_spawns_are_counted_and_traced_where_they_happen(self, kernel, backend):
        spawns = get_metrics().counter("repro_pool_spawns_total", "", ("reason",))
        before = spawns.value(reason="first")
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        try:
            backend.evaluate(_job(kernel), S_GRID)
            backend.evaluate(_job(kernel), S_GRID)
            spans = tracer.spans()
            blocks = sum(w["blocks"] for w in backend.last_worker_stats.values())
        finally:
            tracer.disable()
            tracer.clear()
        assert spawns.value(reason="first") == before + 1
        (spawn,) = [r for r in spans if r["name"] == "pool-spawn"]
        assert spawn["pid"] == os.getpid()
        assert spawn["attributes"] == {"reason": "first", "processes": 2, "generation": 1}
        exports = sorted(r["start"] for r in spans if r["name"] == "plane-export")
        assert len(exports) == 2 and exports[0] <= spawn["start"] <= exports[1]
        assert len([r for r in spans if r["name"] == "s-block"]) == 2 * blocks

    def test_each_block_reports_its_dispatch_wait(self, kernel, backend):
        """The wait from the master's submit to the worker's start rides back
        with the block: an ``s-block`` span attribute and one histogram
        observation per completed block."""
        histogram = get_metrics().histogram(
            "repro_block_dispatch_wait_seconds",
            "wait of a dispatched s-block from submit to worker start",
        )
        before = histogram.snapshot_of()["count"]
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        try:
            backend.evaluate(_job(kernel), S_GRID)
            spans = [r for r in tracer.spans() if r["name"] == "s-block"]
        finally:
            tracer.disable()
            tracer.clear()
        blocks = sum(w["blocks"] for w in backend.last_worker_stats.values())
        assert len(spans) == blocks == 4  # block_size=4 caps the 16 points
        waits = [r["attributes"]["dispatch_wait"] for r in spans]
        assert all(0.0 <= wait < 30.0 for wait in waits)
        assert histogram.snapshot_of()["count"] == before + blocks


class TestFaultPlanReachesResidentWorkers:
    def test_a_plan_installed_after_the_pool_exists(
        self, kernel, serial_reference, backend, tmp_path, monkeypatch
    ):
        _assert_parity(backend.evaluate(_job(kernel), S_GRID), serial_reference)
        assert backend.last_retry_stats["retries"] == {}
        state = tmp_path / "faults"
        monkeypatch.setenv(
            "REPRO_FAULTS", f"state={state};worker.solve=crash:limit=1,block=1"
        )
        values = backend.evaluate(_job(kernel), S_GRID)
        assert list(state.glob("rule*.fire*"))  # it fired, in a worker born before it
        assert backend.last_retry_stats["retries"]
        _assert_parity(values, serial_reference)
        monkeypatch.delenv("REPRO_FAULTS")
        backend.evaluate(_job(kernel), S_GRID)  # ... and a plan removed is gone
        assert backend.last_retry_stats["retries"] == {}
        assert backend.pool_stats()["spawns"] == {"first": 1, "crashed": 1}


def _script(body: str) -> list[str]:
    prelude = f"""
        import os, signal, sys, time
        sys.path[:0] = [{os.path.abspath(SRC)!r}, {os.getcwd()!r}]
        import numpy as np
        from repro.core.jobs import PassageTimeJob
        from repro.distributed import MultiprocessingBackend, SerialBackend
        from repro.smp import SPointPolicy, source_weights
        from tests.smp.conftest import random_kernel
        S_GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]
        kernel = random_kernel(np.random.default_rng(20030422), 60, density=0.4)
        def job(policy=None):
            return PassageTimeJob(kernel=kernel, alpha=source_weights(kernel, [0]),
                                  targets=[3, 4], policy=policy)
    """
    return [sys.executable, "-c", textwrap.dedent(prelude) + textwrap.dedent(body)]


class TestSignals:
    def test_the_watchdog_works_under_a_sigterm_handler(self, tmp_path):
        """``semimarkov serve`` installs a Python SIGTERM handler before any
        pool exists.  A worker that inherited it would shrug off the
        watchdog's SIGTERM, and the call would wait on it for ever."""
        body = f"""
            signal.signal(signal.SIGTERM, lambda *_: print("draining", flush=True))
            os.environ["REPRO_FAULTS"] = (
                "state={tmp_path / 'faults'};worker.solve=hang:limit=1,block=2"
            )
            backend = MultiprocessingBackend(processes=2, block_size=4)
            policy = SPointPolicy(watchdog_floor_seconds=1.5, watchdog_multiplier=3.0)
            values = backend.evaluate(job(policy), S_GRID)
            backend.close()
            del os.environ["REPRO_FAULTS"]
            reference = SerialBackend().evaluate(job(), S_GRID)
            assert max(abs(values[s] - reference[s]) for s in reference) <= 1e-10
            print("suspected", backend.last_retry_stats["suspected"])
        """
        process = subprocess.Popen(
            _script(body), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            out, _ = process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("evaluate never returned: the hung worker outlived the watchdog")
        assert process.returncode == 0, out
        assert "suspected {2: 1}" in out, out
        assert "draining" not in out, out

    def test_workers_die_with_a_killed_master(self):
        body = """
            backend = MultiprocessingBackend(processes=2, block_size=4)
            backend.evaluate(job(), S_GRID)
            print(*backend.pool_stats()["workers"], flush=True)
            time.sleep(60)
        """
        process = subprocess.Popen(_script(body), stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in process.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            process.kill()
            process.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(_alive(pid) for pid in pids)
        finally:
            process.kill()
            process.stdout.close()
            process.wait()
