"""Hung-worker watchdog and poison-block quarantine on the dispatch backend.

A worker that crashes is loud; one that wedges is silent — the pool would
wait forever.  The watchdog turns silence into a pool break, and the poison
tracker turns *repeated* breaks on one block into a fast, structured failure
instead of burning the whole retry budget on a deterministic crasher.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob
from repro.distributed import MultiprocessingBackend, PoisonBlockError, SerialBackend
from repro.smp import SPointPolicy, source_weights
from tests.smp.conftest import random_kernel

S_GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(20030422)
    return random_kernel(rng, 60, density=0.4)


def _job(kernel, policy=None):
    return PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, [0]), targets=[3, 4],
        policy=policy,
    )


class TestWatchdog:
    def test_hung_worker_is_terminated_and_block_resubmitted(
        self, kernel, tmp_path, monkeypatch
    ):
        state = tmp_path / "faults"
        monkeypatch.setenv(
            "REPRO_FAULTS", f"state={state};worker.solve=hang:limit=1,block=2"
        )
        policy = SPointPolicy(watchdog_floor_seconds=1.5, watchdog_multiplier=3.0)
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            values = backend.evaluate(_job(kernel, policy), S_GRID)
        finally:
            backend.close()
        assert list(state.glob("rule*.fire*"))  # the hang really happened
        stats = backend.last_retry_stats
        assert stats["suspected"].get(2) == 1  # the hung block, nothing else
        assert 2 in stats["retries"]
        serial = SerialBackend().evaluate(_job(kernel), S_GRID)
        for s, v in serial.items():
            assert values[s] == pytest.approx(v, abs=1e-12)

    def test_multiplier_zero_disables_watchdog(self):
        policy = SPointPolicy(watchdog_multiplier=0.0)
        assert policy.watchdog_multiplier == 0.0  # accepted, not rejected


class TestPoisonQuarantine:
    def test_deterministic_crasher_fails_fast_with_structured_error(
        self, kernel, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker.solve=crash:block=1")
        policy = SPointPolicy(poison_after=2)
        job = _job(kernel, policy)
        size = min(4, policy.dispatch_block_points(job.evaluator, len(S_GRID), 2))
        n_blocks = -(-len(S_GRID) // size)
        backend = MultiprocessingBackend(processes=2, block_size=4, max_retries=10)
        try:
            with pytest.raises(PoisonBlockError) as excinfo:
                backend.evaluate(job, S_GRID)
        finally:
            backend.close()
        error = excinfo.value
        assert error.block_index == 1
        assert error.failures == 2
        assert error.reason == "crashed"
        # block 1 of the round-robin deal
        assert error.s_points == [complex(s) for s in S_GRID[1::n_blocks]]
        assert "quarantined" in str(error)
        assert f"{error.s_points[0]:.6g}" in str(error)

    def test_innocent_blocks_are_not_poisoned(self, kernel, tmp_path, monkeypatch):
        """A transient crash (limit=1) retries cleanly: the rest of the grid
        finishes and nothing reaches the poison threshold, even with the
        threshold at its floor."""
        state = tmp_path / "faults"
        monkeypatch.setenv(
            "REPRO_FAULTS", f"state={state};worker.solve=crash:limit=1,block=1"
        )
        policy = SPointPolicy(poison_after=2)
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            values = backend.evaluate(_job(kernel, policy), S_GRID)
        finally:
            backend.close()
        assert len(values) == len(S_GRID)
        assert backend.last_retry_stats["suspected"] == {1: 1}


class TestPolicyKnobs:
    def test_validation(self):
        with pytest.raises(ValueError, match="watchdog_floor_seconds"):
            SPointPolicy(watchdog_floor_seconds=0.0)
        with pytest.raises(ValueError, match="poison_after"):
            SPointPolicy(poison_after=0)

    def test_failure_knobs_do_not_perturb_job_digests(self, kernel):
        """The watchdog/poison fields tune failure handling, not arithmetic:
        they are excluded from repr, so checkpoint digests keyed off
        ``{policy!r}`` are insensitive to them."""
        assert repr(
            SPointPolicy(
                watchdog_floor_seconds=1.0, watchdog_multiplier=2.0, poison_after=1
            )
        ) == repr(SPointPolicy())
        hardened = _job(
            kernel, SPointPolicy(watchdog_floor_seconds=1.0, poison_after=1)
        )
        assert hardened.digest() == _job(kernel, SPointPolicy()).digest()
