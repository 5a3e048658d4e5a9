#!/usr/bin/env python3
"""CI smoke test for the fault-injection plane and failure-domain defenses.

Three checks, each on a real 2-worker pool solve of a tiny voting kernel:

1. **Crash + corrupt schedule** — a seeded ``REPRO_FAULTS`` plan crashes one
   worker on its second s-block and corrupts one checkpoint merge.  The pool
   rebuild must recover to exact (<= 1e-10) parity with a serial solve, the
   corrupted artifact must be quarantined (``*.corrupt`` + counter) instead
   of feeding garbage back, and the expected metric deltas must land.
2. **Hang schedule** — one worker sleeps forever inside a block; the
   watchdog (floor 1.5 s here) must terminate the pool, resubmit only the
   unfinished blocks and recover to parity, recording the retry as "hung".
3. **Overhead** — with no plan installed every fault point is a no-op; the
   per-call cost of a disabled ``faults.fire`` is measured directly and a
   best-of-N pool solve with an inert plan installed is compared against one
   with no plan at all (generous CI bound; the measured number is printed
   and normally sits well inside the ±3 % noise band, like obs_smoke).

Every check also asserts a clean directory afterwards: no leaked ``/dev/shm``
segments, no private plane directory of this process left under the temp
directory, no ``*.tmp`` / ``*.plane.tmp`` / ``*.lock`` files.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC_DIR)

import numpy as np  # noqa: E402

from repro import faults  # noqa: E402
from repro.distributed import (  # noqa: E402
    CheckpointStore,
    MultiprocessingBackend,
    SerialBackend,
)
from repro.laplace.inverter import canonical_s  # noqa: E402
from repro.obs import get_metrics  # noqa: E402
from repro.smp import SPointPolicy  # noqa: E402

SEED = 20030422
S_POINTS = [complex(0.05 * (k + 1), 0.4 * k) for k in range(48)]
#: generous CI bound on the no-plan overhead; the real number is noise (~0%)
MAX_OVERHEAD_FRACTION = 0.10
#: a disabled fire() is one dict lookup; anywhere near this bound is a bug
MAX_DISABLED_FIRE_SECONDS = 2e-6


def _tiny_job(policy=None):
    from repro.core.jobs import PassageTimeJob
    from repro.dnamaca import load_model
    from repro.models import SCALED_CONFIGURATIONS, voting_spec_text
    from repro.petri import build_kernel, explore

    net = load_model(voting_spec_text(SCALED_CONFIGURATIONS["tiny"]))
    graph = explore(net)
    kernel = build_kernel(graph, allow_truncated=graph.truncated)
    marking = graph.marking_array()
    targets = np.flatnonzero(marking[:, net.place_index["p2"]] == 4)
    alpha = np.zeros(kernel.n_states)
    alpha[0] = 1.0
    return PassageTimeJob(kernel=kernel, alpha=alpha, targets=targets, policy=policy)


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _private_plane_dirs() -> set:
    """Plane directories store-less pools of this process made and not removed."""
    return set(Path(tempfile.gettempdir()).glob(f"repro-planes-{os.getpid()}-*"))


def _assert_parity(values: dict, reference: dict) -> None:
    assert len(values) == len(reference), (len(values), len(reference))
    worst = max(abs(values[s] - reference[s]) for s in reference)
    assert worst <= 1e-10, f"parity violated: max deviation {worst:.3e}"


def _assert_clean(directory: Path) -> None:
    litter = [
        p for pattern in ("*.tmp", "*.lock", "*.plane.tmp")
        for p in directory.glob(pattern)
    ]
    assert not litter, f"leftover artifacts: {litter}"


def _chaos_solve(spec: str, tmp: Path, policy=None):
    """One 2-worker solve under ``spec`` with a checkpoint store threaded."""
    job = _tiny_job(policy)
    store = CheckpointStore(tmp / "ckpt")
    shm_before, planes_before = _shm_entries(), _private_plane_dirs()
    os.environ["REPRO_FAULTS"] = spec
    backend = MultiprocessingBackend(processes=2, block_size=4)
    try:
        values = backend.evaluate(
            job, S_POINTS, on_block=lambda v: store.merge(job.digest(), v)
        )
    finally:
        backend.close()
        del os.environ["REPRO_FAULTS"]
        faults.clear()
    leaked = _shm_entries() - shm_before
    assert not leaked, f"leaked shared-memory segments: {leaked}"
    leaked = _private_plane_dirs() - planes_before
    assert not leaked, f"leaked plane directories: {leaked}"
    return job, store, values, backend


def check_crash_and_corrupt_schedule(reference: dict) -> None:
    print("== seeded schedule: worker crash + corrupt checkpoint block ==",
          flush=True)
    registry = get_metrics()
    registry.reset()
    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    try:
        state = tmp / "faults"
        spec = (
            f"seed={SEED};state={state};"
            "worker.solve=crash:limit=1,block=1;"
            "checkpoint.merge=corrupt-bytes:limit=1"
        )
        job, store, values, backend = _chaos_solve(spec, tmp)
        _assert_parity(values, reference)
        claims = sorted(p.name for p in state.glob("rule*.fire*"))
        assert claims, "no fault ever fired"
        assert backend.last_retry_stats["suspected"].get(1) == 1, (
            backend.last_retry_stats
        )

        retries = registry.get("repro_block_retries_total")
        assert retries is not None and retries.value(reason="crashed") >= 1
        injected = registry.get("repro_faults_injected_total")
        assert injected is not None
        assert injected.value(point="checkpoint.merge", action="corrupt-bytes") == 1

        # the corrupted merge is caught at the next read, never served
        recovered = store.load(job.digest())
        assert list(store.directory.glob("*.corrupt")), "no quarantine happened"
        corrupt = registry.get("repro_corrupt_artifacts_total")
        assert corrupt is not None and corrupt.value(kind="checkpoint") == 1
        canonical_reference = {canonical_s(s): v for s, v in reference.items()}
        for s, v in recovered.items():
            assert abs(v - canonical_reference[s]) <= 1e-10
        store.release_artifacts()
        _assert_clean(store.directory)
        print(f"crash+corrupt ok: parity held, {claims} claimed, "
              f"retries={backend.last_retry_stats['retries']}, "
              f"quarantined 1 checkpoint", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_hang_schedule(reference: dict) -> None:
    print("== seeded schedule: hung worker vs watchdog ==", flush=True)
    registry = get_metrics()
    registry.reset()
    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    try:
        state = tmp / "faults"
        spec = f"seed={SEED};state={state};worker.solve=hang:limit=1,block=3"
        policy = SPointPolicy(watchdog_floor_seconds=1.5, watchdog_multiplier=3.0)
        started = time.perf_counter()
        job, store, values, backend = _chaos_solve(spec, tmp, policy)
        elapsed = time.perf_counter() - started
        _assert_parity(values, reference)
        assert list(state.glob("rule*.fire*")), "the hang never fired"
        assert backend.last_retry_stats["suspected"].get(3) == 1, (
            backend.last_retry_stats
        )
        retries = registry.get("repro_block_retries_total")
        assert retries is not None and retries.value(reason="hung") >= 1
        store.release_artifacts()
        _assert_clean(store.directory)
        print(f"hang ok: watchdog recovered in {elapsed:.1f}s wall "
              f"(1.5s floor), parity held", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_overhead(reference: dict) -> None:
    print("== disabled fault points are no-ops ==", flush=True)
    faults.clear()
    assert faults.ENV_VAR not in os.environ

    n = 200_000
    started = time.perf_counter()
    for _ in range(n):
        faults.fire("worker.solve", block=1)
    per_call = (time.perf_counter() - started) / n
    print(f"disabled fire(): {per_call * 1e9:.0f} ns/call", flush=True)
    assert per_call < MAX_DISABLED_FIRE_SECONDS, (
        f"disabled fire() costs {per_call * 1e6:.2f} us/call"
    )

    # One warm backend for both sides: what is compared is the solve with and
    # without a plan to match rules against, not two pool spawns.  The sides
    # alternate, so a slow phase of the machine falls on both — and each
    # switch reaches workers that were forked long before it, with the blocks.
    backend = MultiprocessingBackend(processes=2, block_size=4)

    def timed() -> float:
        job = _tiny_job()
        started = time.perf_counter()
        values = backend.evaluate(job, S_POINTS)
        elapsed = time.perf_counter() - started
        _assert_parity(values, reference)
        return elapsed

    baseline = inert = float("inf")
    try:
        timed()  # fork, attach, build
        for _ in range(10):
            baseline = min(baseline, timed())
            # an installed-but-inert plan exercises the full rule-match path
            # at every fault point without ever firing
            os.environ["REPRO_FAULTS"] = "inert.point=raise"
            try:
                inert = min(inert, timed())
            finally:
                del os.environ["REPRO_FAULTS"]
    finally:
        faults.clear()
        backend.close()
    overhead = inert / baseline - 1.0
    print(f"overhead: no plan {baseline * 1e3:.1f} ms, inert plan "
          f"{inert * 1e3:.1f} ms -> {overhead * 100:+.2f}%", flush=True)
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"fault-point overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}% CI bound"
    )


def main() -> int:
    os.environ.pop("REPRO_FAULTS", None)
    faults.clear()
    reference = SerialBackend().evaluate(_tiny_job(), S_POINTS)
    check_crash_and_corrupt_schedule(reference)
    check_hang_schedule(reference)
    check_overhead(reference)
    get_metrics().reset()
    print("chaos smoke test PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
