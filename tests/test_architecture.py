"""The design, pinned: one loop turns plan points into stored values.

Within ``src/repro`` only the executors (``distributed/backends.py``) call a
job's batch evaluation, and only the two modules that own a key format call
the scalar canonicaliser — every other surface reaches both through
``CoalescingScheduler.evaluate`` and the keys its ``QueryPlan`` carries.  A
new call site outside these files is a second path growing back.
"""
from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _call_sites(*names: str) -> dict[str, int]:
    """``{relative path: count}`` of calls in ``src/repro`` to a function or
    method called one of ``names``."""
    sites: dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        count = 0
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                count += name in names
        if count:
            sites[path.relative_to(SRC).as_posix()] = count
    return sites


def test_only_the_executors_evaluate_batches():
    sites = _call_sites("evaluate_batch", "evaluate_many")
    # core/jobs.py: evaluate_many is defined there as a wrapper of evaluate_batch
    assert sites == {"core/jobs.py": 1, "distributed/backends.py": 2}


def test_scalar_canonicalisation_stays_with_the_key_formats():
    sites = _call_sites("canonical_s")
    assert set(sites) <= {"laplace/inverter.py", "distributed/checkpoint.py"}
    assert sites["distributed/checkpoint.py"] == 1


def test_one_quantile_refiner():
    assert _call_sites("brentq") == {"api/measures.py": 1}


def test_the_deleted_surface_stays_deleted():
    assert not (SRC / "distributed" / "pipeline.py").exists()
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    for name in (
        "DistributedPipeline", "PipelineStatistics", "SPointWorkQueue",
        "WorkItem", "supports_blocks", "supports_progress", "_evaluate=",
        "_run_state",
    ):
        assert name not in source, name
