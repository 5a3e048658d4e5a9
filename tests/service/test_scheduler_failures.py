"""Failure propagation through the coalescing scheduler.

A waiter blocked on another request's in-flight s-point must learn about the
leader's death *immediately* — sitting out the coalesce timeout would turn
one failed evaluation into a ten-minute stall for every coalesced request.
The same goes for a run its observer stops at a block boundary (a cancelled
or drained job): the blocks that landed stay, the rest is never solved, and
waiters on the unsolved points see the error at once.
"""
from __future__ import annotations

import glob
import os
import tempfile
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob
from repro.distributed import MultiprocessingBackend
from repro.service.cache import TieredResultCache
from repro.service.scheduler import CoalescingScheduler
from repro.smp import source_weights
from tests.oneloop import private_plane_dirs

S = complex(1.0, 2.0)


class _FakeCache:
    """Everything misses; peek/insert are controllable no-ops."""

    def __init__(self, peek=None):
        self._peek = peek

    def lookup(self, digest, canonical):
        return SimpleNamespace(
            found={}, missing=list(canonical), memory_hits=0, disk_hits=0
        )

    def peek(self, digest, owned):
        if self._peek is not None:
            return self._peek(digest, owned)
        return {}

    def insert(self, digest, values):
        pass


class _ScriptedJob:
    """evaluate_batch blocks on ``release`` and then runs ``action``."""

    policy = None
    last_report = None

    def __init__(self, entered, release, action):
        self.entered = entered
        self.release = release
        self.action = action

    def digest(self):
        return "digest-1"

    def kind(self):
        return "passage"

    def evaluate_batch(self, s_values):
        self.entered.set()
        self.release.wait(10.0)
        return self.action(s_values)


def _ones(s_values):
    return np.ones(len(s_values), dtype=complex)


def _leader_and_waiter(scheduler, job):
    """Start a leader on ``job`` and, once it owns the point, a waiter."""
    leader_error: list = []

    def _lead():
        try:
            scheduler.evaluate(job, [S])
        except BaseException as exc:  # noqa: BLE001 - recorded for the test
            leader_error.append(exc)

    leader = threading.Thread(target=_lead, daemon=True)
    leader.start()
    assert job.entered.wait(5.0)

    waiter_outcome: dict = {}

    def _wait():
        follower = _ScriptedJob(threading.Event(), threading.Event(), _ones)
        start = time.monotonic()
        try:
            waiter_outcome["value"] = scheduler.evaluate(follower, [S])
        except BaseException as exc:  # noqa: BLE001 - recorded for the test
            waiter_outcome["error"] = exc
        waiter_outcome["elapsed"] = time.monotonic() - start

    waiter = threading.Thread(target=_wait, daemon=True)
    waiter.start()
    time.sleep(0.1)  # let the waiter register on the in-flight ticket
    return leader, waiter, leader_error, waiter_outcome


def test_leader_death_reaches_waiters_within_a_second():
    scheduler = CoalescingScheduler(_FakeCache(), coalesce_timeout=600.0)

    def _explode(todo):
        raise RuntimeError("leader exploded")

    entered, release = threading.Event(), threading.Event()
    job = _ScriptedJob(entered, release, _explode)
    leader, waiter, leader_error, outcome = _leader_and_waiter(scheduler, job)

    released = time.monotonic()
    release.set()
    waiter.join(5.0)
    leader.join(5.0)
    assert not waiter.is_alive()
    assert isinstance(leader_error[0], RuntimeError)
    assert "error" in outcome
    assert "failed in another request" in str(outcome["error"])
    # the waiter saw the failure nearly instantly, not after the timeout
    assert time.monotonic() - released < 1.0
    assert not scheduler._in_flight  # no orphaned tickets


def test_failure_outside_evaluate_owned_still_resolves_tickets():
    """The peek double-check runs before _evaluate_owned; a crash there must
    release the registered tickets too (regression for the wrapper around
    the whole owned section)."""
    peek_entered, peek_release = threading.Event(), threading.Event()

    def _peek(digest, owned):
        peek_entered.set()
        peek_release.wait(10.0)
        raise RuntimeError("cache backend died")

    scheduler = CoalescingScheduler(_FakeCache(peek=_peek), coalesce_timeout=600.0)
    job = _ScriptedJob(peek_entered, threading.Event(), _ones)
    leader, waiter, leader_error, outcome = _leader_and_waiter(scheduler, job)

    released = time.monotonic()
    peek_release.set()
    waiter.join(5.0)
    leader.join(5.0)
    assert not waiter.is_alive()
    assert isinstance(leader_error[0], RuntimeError)
    assert "error" in outcome
    assert time.monotonic() - released < 1.0
    assert not scheduler._in_flight


def test_coalesce_timeout_is_a_constructor_knob():
    scheduler = CoalescingScheduler(_FakeCache(), coalesce_timeout=0.2)
    assert scheduler.coalesce_timeout == 0.2

    entered, release = threading.Event(), threading.Event()
    job = _ScriptedJob(entered, release, _ones)
    leader, waiter, leader_error, outcome = _leader_and_waiter(scheduler, job)
    try:
        waiter.join(5.0)
        assert isinstance(outcome.get("error"), TimeoutError)
        assert outcome["elapsed"] < 2.0  # the 600s default would still be waiting
    finally:
        release.set()
        leader.join(5.0)
    assert not leader_error


def test_coalesce_timeout_must_be_positive():
    with pytest.raises(ValueError, match="coalesce_timeout"):
        CoalescingScheduler(_FakeCache(), coalesce_timeout=0.0)


# ---------------------------------------------------------------------------
# An observer that raises stops the run at that block boundary.
# ---------------------------------------------------------------------------

GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]


class _Stop(Exception):
    """What a cancelled / drained job's observer raises."""


def _stop_after(n_blocks):
    seen = []

    def observer(values):
        seen.append(dict(values))
        if len(seen) == n_blocks:
            raise _Stop

    return observer, seen


def test_eval_lock_is_held_per_block_not_per_call():
    """Between two blocks the lock is free — a sync query on the same kernel
    gets its turn between a running job's blocks."""
    lock = threading.Lock()
    held_while_solving, held_while_landing = [], []

    def solve(s_values):
        held_while_solving.append(lock.locked())
        return _ones(s_values)

    release = threading.Event()
    release.set()
    job = _ScriptedJob(threading.Event(), release, solve)
    scheduler = CoalescingScheduler(TieredResultCache())
    values = scheduler.evaluate(
        job, GRID, eval_lock=lock, block_points=4,
        on_block=lambda block: held_while_landing.append(lock.locked()),
    )
    assert len(values) == len(GRID)
    assert held_while_solving == [True] * 4
    assert held_while_landing == [False] * 4
    assert not lock.locked()


def test_observer_stop_keeps_landed_blocks_and_fails_the_rest_once():
    scheduler = CoalescingScheduler(TieredResultCache())
    release = threading.Event()
    release.set()
    job = _ScriptedJob(threading.Event(), release, _ones)
    observer, seen = _stop_after(2)
    with pytest.raises(_Stop):
        scheduler.evaluate(job, GRID, block_points=4, on_block=observer)
    assert [len(block) for block in seen] == [4, 4]
    assert not scheduler._in_flight  # every ticket resolved, value or error
    assert scheduler.stats()["points_evaluated"] == 8
    # the landed half is served from the store; only the rest is solved again
    observer, seen = _stop_after(99)
    scheduler.evaluate(job, GRID, block_points=4, on_block=observer)
    assert [len(block) for block in seen] == [4, 4]
    assert scheduler.stats()["points_evaluated"] == 16


def test_waiter_on_an_unsolved_point_sees_the_stop_immediately():
    scheduler = CoalescingScheduler(TieredResultCache(), coalesce_timeout=600.0)
    entered, release = threading.Event(), threading.Event()
    job = _ScriptedJob(entered, release, _ones)
    leader_error: list = []

    def _lead():
        try:
            scheduler.evaluate(
                job, GRID, block_points=4, on_block=_stop_after(1)[0]
            )
        except BaseException as exc:  # noqa: BLE001 - recorded for the test
            leader_error.append(exc)

    leader = threading.Thread(target=_lead, daemon=True)
    leader.start()
    assert entered.wait(5.0)
    outcome: dict = {}

    def _wait():
        follower = _ScriptedJob(threading.Event(), threading.Event(), _ones)
        try:
            outcome["value"] = scheduler.evaluate(follower, [GRID[-1]])
        except BaseException as exc:  # noqa: BLE001 - recorded for the test
            outcome["error"] = exc

    waiter = threading.Thread(target=_wait, daemon=True)
    waiter.start()
    time.sleep(0.1)  # let the waiter register on the last block's ticket
    released = time.monotonic()
    release.set()
    waiter.join(5.0)
    leader.join(5.0)
    assert not waiter.is_alive() and not leader.is_alive()
    assert isinstance(leader_error[0], _Stop)
    assert "failed in another request" in str(outcome["error"])
    assert isinstance(outcome["error"].__cause__, _Stop)
    assert time.monotonic() - released < 1.0
    assert not scheduler._in_flight


def test_pool_stop_cancels_pending_blocks_and_releases_everything(
    two_state_kernel, tmp_path, monkeypatch
):
    """With a worker pool the blocks still queued when the observer raises
    are cancelled, not solved and thrown away."""
    state = tmp_path / "faults"
    monkeypatch.setenv(
        "REPRO_FAULTS", f"state={state};worker.solve=delay:seconds=0.25,limit=100"
    )
    incident_dirs = os.path.join(tempfile.gettempdir(), "repro-incident-*")
    incidents_before = set(glob.glob(incident_dirs))
    planes_before = private_plane_dirs()
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    job = PassageTimeJob(
        kernel=two_state_kernel,
        alpha=source_weights(two_state_kernel, [0]),
        targets=[1],
    )
    backend = MultiprocessingBackend(processes=1)
    cache = TieredResultCache()
    scheduler = CoalescingScheduler(cache, backend=backend)
    observer, seen = _stop_after(1)
    try:
        with pytest.raises(_Stop):
            scheduler.evaluate(job, GRID, block_points=2, on_block=observer)
    finally:
        backend.close()
    # 8 blocks were queued; the first landed, and beyond it only what the
    # pool had already handed to its worker (the running block and what was
    # prefetched behind it) was still solved — and discarded
    started = len(list(state.glob("rule*.fire*")))
    assert 1 <= started <= 4
    assert len(seen) == 1 and len(seen[0]) == 2
    assert cache.stats()["points_in_memory"] == 2
    assert not scheduler._in_flight
    assert set(glob.glob(incident_dirs)) == incidents_before
    assert private_plane_dirs() <= planes_before
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shm_before
