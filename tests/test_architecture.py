"""The design, pinned: one loop turns plan points into stored values.

Within ``src/repro`` only the executors (``distributed/backends.py``) call a
job's batch evaluation, and only the two modules that own a key format call
the scalar canonicaliser — every other surface reaches both through
``CoalescingScheduler.evaluate`` and the keys its ``QueryPlan`` carries.  One
layer down, every batched solve is one block loop around one routed block
solve around one driver (``smp/passage.py``).  A new call site outside these
files is a second path growing back.
"""
from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.smp import SPointPolicy

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


# --- one layer down: one routed block solve in smp/ -------------------------


def test_one_routed_block_solve():
    """One scaffold, one block function, one driver: each decision of a block
    solve (time it, route it, solve it directly) is written exactly once."""
    assert _call_sites("route_direct") == {"smp/passage.py": 1}
    assert _call_sites("passage_transform_direct_batch") == {"smp/passage.py": 1}
    assert _call_sites("_drive") == {"smp/passage.py": 1}
    # the transient solve runs its per-target solves inside the same scaffold
    assert _call_sites("_solve_block") == {"smp/passage.py": 1, "smp/transient.py": 1}
    assert _call_sites("_block_loop") == {"smp/passage.py": 1, "smp/transient.py": 1}
    assert _call_sites("_note_block") == {"smp/passage.py": 1}
    clocks = _call_sites("perf_counter")
    timed = ("smp/passage.py", "smp/transient.py", "core/jobs.py")
    assert sum(clocks.get(path, 0) for path in timed) <= 2


def test_the_engine_is_decided_once_per_kernel():
    assert sum(_call_sites("resolve_engine").values()) <= 3
    for sizing in (SPointPolicy.block_points, SPointPolicy.dispatch_block_points):
        assert "engine" not in inspect.signature(sizing).parameters


def test_policy_knobs_earn_their_keep():
    assert len(dataclasses.fields(SPointPolicy)) == 7
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    for name in (
        "_passage_block", "_vector_block", "_drive_row", "_drive_col",
        "factored_density_ratio", "factored_max_distributions",
        "blockdiag_max_bytes", "direct_max_states", "chunk_size",
    ):
        assert name not in source, name
