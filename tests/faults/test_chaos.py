"""Chaos schedules: seeded fault plans over a real two-worker solve.

Each schedule injects one failure domain — a worker crash, a silent hang, a
plane attach failure, a corrupted checkpoint write, a full disk — into a
genuine :class:`MultiprocessingBackend` evaluation and asserts the two
invariants every defence must preserve:

* **parity**: the returned values match a serial solve to <= 1e-10, fault or
  no fault — recovery never substitutes approximate or stale results;
* **no leaks**: no shared-memory segments, no private plane directory of
  this process, no ``*.plane.tmp``, ``*.tmp`` or ``*.lock`` files survive the
  run once the backend is closed and artifacts released.

The schedules are deterministic: triggers are label filters and cross-process
``limit`` tokens (the ``seed`` pins any probabilistic byte picks), so a
failing schedule replays exactly under its ``REPRO_FAULTS`` string.
"""
from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob
from repro.distributed import CheckpointStore, MultiprocessingBackend, SerialBackend
from repro.laplace.inverter import canonical_s
from repro.obs.metrics import get_metrics
from repro.service.cache import TieredResultCache
from repro.smp import SPointPolicy, source_weights
from tests.oneloop import private_plane_dirs
from tests.smp.conftest import random_kernel

S_GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(20030422)
    return random_kernel(rng, 60, density=0.4)


@pytest.fixture(scope="module")
def serial_reference(kernel):
    job = PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, [0]), targets=[3, 4]
    )
    return SerialBackend().evaluate(job, S_GRID)


def _job(kernel, policy=None):
    return PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, [0]), targets=[3, 4],
        policy=policy,
    )


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _run_schedule(job, spec, monkeypatch, *, on_block=None):
    """One chaos run: set the schedule, solve on two workers, check leaks."""
    shm_before, planes_before = _shm_entries(), private_plane_dirs()
    monkeypatch.setenv("REPRO_FAULTS", spec)
    backend = MultiprocessingBackend(processes=2, block_size=4)
    try:
        values = backend.evaluate(job, S_GRID, on_block=on_block)
    finally:
        backend.close()
    assert _shm_entries() <= shm_before  # no leaked kernel planes,
    assert private_plane_dirs() <= planes_before  # wherever they live
    return values, backend


def _assert_parity(values, serial_reference):
    assert len(values) == len(S_GRID)
    for s, expected in serial_reference.items():
        assert values[s] == pytest.approx(expected, abs=1e-10)


def _assert_store_clean(directory):
    assert not list(directory.glob("*.tmp"))
    assert not list(directory.glob("*.lock"))
    assert not list(directory.glob("*.plane.tmp"))


def test_schedule_worker_crash(kernel, serial_reference, tmp_path, monkeypatch):
    state = tmp_path / "faults"
    values, backend = _run_schedule(
        _job(kernel),
        f"seed=1;state={state};worker.solve=crash:limit=1,block=1",
        monkeypatch,
    )
    assert list(state.glob("rule*.fire*"))
    assert backend.last_retry_stats["retries"]
    _assert_parity(values, serial_reference)


def test_schedule_worker_hang(kernel, serial_reference, tmp_path, monkeypatch):
    state = tmp_path / "faults"
    policy = SPointPolicy(watchdog_floor_seconds=1.5, watchdog_multiplier=3.0)
    values, backend = _run_schedule(
        _job(kernel, policy),
        f"seed=2;state={state};worker.solve=hang:limit=1,block=2",
        monkeypatch,
    )
    assert list(state.glob("rule*.fire*"))
    assert backend.last_retry_stats["suspected"].get(2) == 1
    _assert_parity(values, serial_reference)


def test_schedule_plane_attach_failure(
    kernel, serial_reference, tmp_path, monkeypatch
):
    """One worker fails to attach the kernel plane at pool start: the broken
    pool is rebuilt and the rebuilt workers attach cleanly."""
    state = tmp_path / "faults"
    values, _ = _run_schedule(
        _job(kernel),
        f"seed=3;state={state};plane.attach=raise:limit=1",
        monkeypatch,
    )
    assert list(state.glob("rule*.fire*"))
    _assert_parity(values, serial_reference)


def test_schedule_corrupt_plane_export(kernel, serial_reference, monkeypatch):
    """A store-less pool writes its plane corrupted: every worker's attach
    fails its checksum until the retries run out, and the *next* evaluate
    finds the bad file, quarantines it and exports afresh — a pool without a
    plane store heals like one with."""
    planes_before = private_plane_dirs()
    corrupt = get_metrics().counter(
        "repro_corrupt_artifacts_total",
        "on-disk artifacts that failed an integrity check", ("kind",),
    )
    quarantined_before = corrupt.value(kind="plane")
    monkeypatch.setenv("REPRO_FAULTS", "seed=6;plane.export=corrupt-bytes:limit=1")
    backend = MultiprocessingBackend(processes=2, block_size=4)
    try:
        with pytest.raises(BrokenProcessPool):
            backend.evaluate(_job(kernel), S_GRID)
        assert corrupt.value(kind="plane") == quarantined_before
        values = backend.evaluate(_job(kernel), S_GRID)
        assert corrupt.value(kind="plane") == quarantined_before + 1
        assert len(private_plane_dirs() - planes_before) == 1
    finally:
        backend.close()
    _assert_parity(values, serial_reference)
    assert private_plane_dirs() <= planes_before


def test_schedule_corrupt_checkpoint_block(
    kernel, serial_reference, tmp_path, monkeypatch
):
    """One checkpoint merge writes garbage: the checksum quarantines it on
    the next read, and no corrupted value ever reaches a result."""
    job = _job(kernel)
    store = CheckpointStore(tmp_path / "ckpt")
    state = tmp_path / "faults"
    values, _ = _run_schedule(
        job,
        f"seed=4;state={state};checkpoint.merge=corrupt-bytes:limit=1",
        monkeypatch,
        on_block=lambda values: store.merge(job.digest(), values),
    )
    _assert_parity(values, serial_reference)
    monkeypatch.delenv("REPRO_FAULTS")
    # whatever survived on disk is either quarantined or bit-exact
    recovered = store.load(job.digest())
    assert list(store.directory.glob("*.corrupt"))
    reference = {canonical_s(s): v for s, v in serial_reference.items()}
    for s, v in recovered.items():
        assert v == pytest.approx(reference[s], abs=1e-10)
    store.release_artifacts()
    _assert_store_clean(store.directory)


def test_schedule_checkpoint_enospc(
    kernel, serial_reference, tmp_path, monkeypatch, caplog
):
    """Every checkpoint merge hits a full disk: durability is lost with a
    warning (the result store's, where every block lands), the in-memory
    computation is not."""
    job = _job(kernel)
    store = CheckpointStore(tmp_path / "ckpt")
    cache = TieredResultCache(store)
    with caplog.at_level("WARNING", logger="repro.service"):
        values, _ = _run_schedule(
            job,
            "seed=5;checkpoint.merge=enospc",
            monkeypatch,
            on_block=lambda values: cache.insert(job.digest(), values),
        )
    _assert_parity(values, serial_reference)
    assert any("continuing without durability" in r.getMessage() for r in caplog.records)
    assert cache.stats()["points_in_memory"] == len(S_GRID)
    monkeypatch.delenv("REPRO_FAULTS")
    assert store.load(job.digest()) == {}  # nothing made it to disk
    store.release_artifacts()
    _assert_store_clean(store.directory)
