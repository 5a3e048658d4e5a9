"""Block-dispatched execution parity: every bundled model, engine, inversion.

The s-block refactor must be invisible in the numbers: a grid chopped into
memory-budgeted blocks and evaluated by pool workers attached to the shared
kernel plane has to agree with the single-process inline sweep to 1e-10 on
every bundled model, under both the batched and the distribution-factored
evaluation engines and both inversion algorithms.  (Per-point results are
independent of the blocking, so in practice the agreement is bit-exact.)
"""
from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.api import DistributedEngine, Model
from repro.core.jobs import PassageTimeJob
from repro.distributed import MultiprocessingBackend
from repro.models import (
    SCALED_CONFIGURATIONS,
    alternating_renewal_kernel,
    birth_death_kernel,
    build_voting_kernel,
    cyclic_server_kernel,
    mg1_queue_kernel,
    web_server_net,
)
from repro.petri import build_kernel, explore
from repro.smp import SPointPolicy, source_weights
from tests.oneloop import LoopRun, private_plane_dirs

T_POINTS = [0.5, 2.0]
PARITY = dict(rtol=0.0, atol=1e-10)
LAGUERRE_OPTIONS = {"n_points": 32}

_KERNEL_BUILDERS = {
    "alternating-renewal": lambda: alternating_renewal_kernel(),
    "birth-death": lambda: birth_death_kernel(6),
    "cyclic-server": lambda: cyclic_server_kernel(3),
    "mg1-queue": lambda: mg1_queue_kernel(5),
    "web-server": lambda: build_kernel(
        explore(web_server_net(servers=2, queue_capacity=2))
    ),
    "voting-tiny": lambda: build_voting_kernel(SCALED_CONFIGURATIONS["tiny"])[0],
}

_KERNELS: dict[str, object] = {}


def _kernel(name):
    if name not in _KERNELS:
        _KERNELS[name] = _KERNEL_BUILDERS[name]()
    return _KERNELS[name]


def _make_job(kernel, engine: str) -> PassageTimeJob:
    return PassageTimeJob(
        kernel=kernel,
        alpha=source_weights(kernel, [0]),
        targets=[kernel.n_states - 1],
        policy=SPointPolicy(engine=engine),
    )


@pytest.mark.parametrize("model_name", sorted(_KERNEL_BUILDERS))
@pytest.mark.parametrize("engine", ["batch", "factored"])
@pytest.mark.parametrize("inversion", ["euler", "laguerre"])
def test_block_dispatch_matches_inline(model_name, engine, inversion):
    kernel = _kernel(model_name)
    options = LAGUERRE_OPTIONS if inversion == "laguerre" else None

    reference = LoopRun(
        _make_job(kernel, engine), inversion=inversion, inverter_options=options
    ).density(T_POINTS)

    backend = MultiprocessingBackend(processes=2)
    blocked = LoopRun(
        _make_job(kernel, engine),
        inversion=inversion,
        inverter_options=options,
        backend=backend,
    )
    try:
        density = blocked.density(T_POINTS)
    finally:
        backend.close()
    np.testing.assert_allclose(density, reference, **PARITY)
    assert blocked.stats.extra["workers"]  # the pool really served the blocks


class TestQueryLevelWorkers:
    @pytest.fixture(scope="class")
    def passage_query(self, voting_spec):
        model = Model.from_spec(voting_spec, name="voting-block-parity")
        return model.passage("p1 == CC", "p2 == CC").density([5.0, 10.0, 20.0])

    @pytest.fixture(scope="class")
    def inline_result(self, passage_query):
        return passage_query.run(engine="inline")

    def test_multiprocessing_workers_kwarg(self, passage_query, inline_result):
        planes_before = private_plane_dirs()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = passage_query.run(engine="multiprocessing", workers=2)
            gc.collect()
        np.testing.assert_allclose(result.density, inline_result.density, **PARITY)
        workers = result.statistics.get("workers")
        assert workers
        assert sum(e["points"] for e in workers.values()) > 0
        # nobody closed the engine: its pool's private plane directory went
        # with it, silently
        assert private_plane_dirs() <= planes_before
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_workers_and_processes_conflict(self):
        from repro.api.engines import EngineError, MultiprocessingEngine

        with pytest.raises(EngineError):
            MultiprocessingEngine(workers=2, processes=3)

    def test_distributed_workers_use_plane_store(
        self, passage_query, inline_result, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        engine = DistributedEngine(workers=2, checkpoint=str(ckpt))
        result = passage_query.run(engine)
        np.testing.assert_allclose(result.density, inline_result.density, **PARITY)
        # The engine exported the kernel plane as a file under the
        # checkpoint directory, where serve-fleet workers attach by digest.
        assert list((ckpt / "planes").glob("*.plane"))
        # Resume answers from the block-granular checkpoint.
        resumed = passage_query.run(DistributedEngine(workers=2, checkpoint=str(ckpt)))
        assert resumed.statistics["s_points_computed"] == 0


class TestServiceWorkers:
    def test_service_pool_reports_worker_stats(self, voting_spec):
        from repro.service import AnalysisService

        service = AnalysisService(workers=2)
        info = service.register_model(voting_spec, name="voting-pool")
        response = service.passage(
            model=info["model"],
            source="p1 == CC",
            target="p2 == CC",
            t_points=[5.0, 10.0],
            include_cdf=False,
        )
        workers = response["statistics"].get("workers")
        assert workers
        assert sum(e["blocks"] for e in workers.values()) > 0
        stats = service.stats()
        assert stats["workers"] == 2
        assert stats["scheduler"].get("workers")

    def test_service_rejects_bad_worker_count(self):
        from repro.service import AnalysisService
        from repro.service.service import ValidationError

        with pytest.raises(ValidationError):
            AnalysisService(workers=0)
