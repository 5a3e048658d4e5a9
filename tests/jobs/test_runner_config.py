"""The runner's s-block size is checked when the runner is built.

A block size below one makes every executor return no values without
raising, which would leave an async job's tickets unresolved; a value that
is not an integer must say which setting it came from.
"""
from __future__ import annotations

import pytest

from repro.jobs.runner import JobRunner
from repro.jobs.store import JobStore, MemoryBackend


def _runner(**kwargs) -> JobRunner:
    return JobRunner(None, JobStore(MemoryBackend()), **kwargs)


@pytest.mark.parametrize("value", ["-4", "0", "abc", "2.5"])
def test_a_bad_environment_block_size_is_refused(monkeypatch, value):
    monkeypatch.setenv("REPRO_JOBS_BLOCK_POINTS", value)
    with pytest.raises(ValueError, match="REPRO_JOBS_BLOCK_POINTS"):
        _runner()


@pytest.mark.parametrize("value", [-4, 0, 2.0, True])
def test_a_bad_block_points_argument_is_refused(monkeypatch, value):
    monkeypatch.delenv("REPRO_JOBS_BLOCK_POINTS", raising=False)
    with pytest.raises(ValueError, match="job_block_points"):
        _runner(block_points=value)


def test_good_block_sizes_are_kept(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS_BLOCK_POINTS", raising=False)
    assert _runner().block_points is None
    assert _runner(block_points=4).block_points == 4
    monkeypatch.setenv("REPRO_JOBS_BLOCK_POINTS", "8")
    assert _runner(block_points=4).block_points == 8
