"""A 2-worker pool answers bit for bit what the calling process answers.

The pool deals a grid round-robin into one block per worker, the inline
engine solves it as one block: a point's value must not depend on which
other points share its block.  Pinned on system 0 (voting (18, 6, 3)) — the
benchmark's passage grid, a transient and the far-tail grid whose slow
points the policy routes to the sparse LU — and on kernels whose Weibull
sojourn is transformed numerically, on both iterative engines.
"""
from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import Model, MultiprocessingEngine
from repro.core.jobs import PassageTimeJob, TransientJob
from repro.distributed import MultiprocessingBackend, SerialBackend
from repro.distributions import Erlang, Exponential, Uniform, Weibull
from repro.laplace import EulerInverter
from repro.models import VotingParameters, voting_spec_text
from repro.service.registry import ModelRegistry
from repro.smp import SMPBuilder, SPointPolicy, source_weights

SOURCE, TARGET = "p1 == CC", "p2 == CC"


def _system0() -> Model:
    return Model.from_spec(
        voting_spec_text(VotingParameters(18, 6, 3)), registry=ModelRegistry()
    )


def _bits(values) -> list[str]:
    flat = np.asarray(values, dtype=complex).ravel().view(float)
    return [float(v).hex() for v in flat]


QUERIES = {
    "passage": lambda model: model.passage(SOURCE, TARGET).density([15.0, 27.0, 60.0]).cdf(),
    "transient": lambda model: model.transient(SOURCE, "p2 >= 17").probability([10.0, 30.0]),
    # at t = 640 the default policy routes part of the grid to the sparse LU
    "tail640": lambda model: model.passage(SOURCE, TARGET).density([640.0]).cdf(),
}


@pytest.fixture(scope="module")
def pool_engine():
    engine = MultiprocessingEngine(workers=2)
    yield engine
    engine.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_system0_pool_equals_inline_bit_for_bit(name, pool_engine):
    inline = QUERIES[name](_system0()).run()
    pooled = QUERIES[name](_system0()).run(pool_engine)
    computed = pooled.statistics["s_points_computed"]
    assert computed == inline.statistics["s_points_computed"] > 0
    workers = pooled.statistics["workers"]
    # one block per worker, every point solved by a worker
    assert sum(entry["points"] for entry in workers.values()) == computed
    assert sum(entry["blocks"] for entry in workers.values()) == 2
    assert pooled.transform_values.keys() == inline.transform_values.keys()
    for s, value in inline.transform_values.items():
        assert _bits([pooled.transform_values[s]]) == _bits([value]), s
    for field in ("density", "cdf", "probability"):
        if getattr(inline, field, None) is not None:
            assert _bits(getattr(pooled, field)) == _bits(getattr(inline, field)), field
    if name == "tail640":
        routed = sum(b["direct_solves"] for b in inline.statistics["solve_blocks"])
        assert routed > 0
        assert sum(b["direct_solves"] for b in pooled.statistics["solve_blocks"]) == routed


def _weibull_kernel(n_states: int, degree: int, seed: int):
    """A random kernel whose sojourns include a Weibull (no closed-form LST)."""
    rng = np.random.default_rng(seed)
    sojourns = [Exponential(1.2), Erlang(2.0, 3), Uniform(0.2, 1.4), Weibull(1.3, 1.0)]
    builder = SMPBuilder()
    for state in range(n_states):
        builder.add_state(f"s{state}")
    for state in range(n_states):
        successors = np.unique(
            np.concatenate([[(state + 1) % n_states], rng.integers(0, n_states, degree)])
        )
        successors = successors[successors != state]
        weights = rng.random(successors.size) + 0.05
        weights /= weights.sum()
        for successor, weight in zip(successors, weights):
            sojourn = sojourns[int(rng.integers(0, len(sojourns)))]
            builder.add_transition(state, int(successor), float(weight), sojourn)
    return builder.build()


@pytest.mark.parametrize("engine", ["batch", "factored"])
@pytest.mark.parametrize("job_class", [PassageTimeJob, TransientJob])
def test_weibull_kernel_pool_equals_inline_bit_for_bit(engine, job_class):
    kernel = _weibull_kernel(80, 20, seed=11)
    job = job_class(
        kernel=kernel, alpha=source_weights(kernel, [0]),
        targets=[kernel.n_states - 1, kernel.n_states - 2],
        policy=SPointPolicy(engine=engine),
    )
    grid = np.asarray(EulerInverter().required_s_points(np.asarray([2.0, 6.0])))
    grid = [complex(s) for s in grid[grid != 0]]
    inline = SerialBackend().evaluate(job, grid)
    assert job.last_report["engine"] == engine
    backend = MultiprocessingBackend(processes=2)
    try:
        pooled = backend.evaluate(job, grid)
        assert sum(entry["blocks"] for entry in backend.last_worker_stats.values()) == 2
    finally:
        backend.close()
    assert pooled.keys() == inline.keys()
    for s, value in inline.items():
        assert _bits([pooled[s]]) == _bits([value]), s
