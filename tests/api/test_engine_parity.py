"""Engine parity: one query object, four engines, identical results.

The contract of the api facade is that the execution engine is a pure
deployment choice — the numbers must not depend on it.  The same
voting-model query object is run through the inline, multiprocessing,
distributed and remote (live server) engines and the results are required
to agree within 1e-10 (in practice they are bit-identical, because every
path evaluates the same exact s-points and caches by canonical key).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.api import DistributedEngine, Model, build_job, resolve_state_sets
from repro.core.results import PassageTimeResult, TransientResult
from repro.distributed import CheckpointStore
from repro.service.registry import ModelRegistry
from repro.smp import kernel as kernel_module
from repro.smp import kernel_content_digest

T_POINTS = [5.0, 10.0, 20.0]
PARITY = dict(rtol=0.0, atol=1e-10)


@pytest.fixture(scope="module")
def passage_query(voting_spec):
    model = Model.from_spec(voting_spec, name="voting-tiny")
    return (
        model.passage("p1 == CC", "p2 == CC")
        .density(T_POINTS)
        .cdf()
        .quantile(0.9)
    )


@pytest.fixture(scope="module")
def inline_result(passage_query):
    return passage_query.run(engine="inline")


class TestPassageParity:
    def test_inline_shape(self, inline_result):
        assert isinstance(inline_result, PassageTimeResult)
        assert inline_result.density.shape == (3,)
        assert inline_result.cdf.shape == (3,)
        assert 0.9 in inline_result.quantiles
        assert inline_result.statistics["engine"] == "inline"

    def test_multiprocessing_matches_inline(self, passage_query, inline_result):
        result = passage_query.run(engine="multiprocessing", processes=2)
        assert isinstance(result, PassageTimeResult)
        np.testing.assert_allclose(result.density, inline_result.density, **PARITY)
        np.testing.assert_allclose(result.cdf, inline_result.cdf, **PARITY)
        assert result.quantiles[0.9] == pytest.approx(
            inline_result.quantiles[0.9], abs=1e-10
        )

    def test_remote_matches_inline(self, passage_query, inline_result, server_url):
        result = passage_query.run(engine="remote", url=server_url)
        assert isinstance(result, PassageTimeResult)
        np.testing.assert_allclose(result.density, inline_result.density, **PARITY)
        np.testing.assert_allclose(result.cdf, inline_result.cdf, **PARITY)
        assert result.quantiles[0.9] == pytest.approx(
            inline_result.quantiles[0.9], abs=1e-10
        )
        # And again against the server's warm cache.
        warm = passage_query.run(engine="remote", url=server_url)
        np.testing.assert_allclose(warm.density, inline_result.density, **PARITY)
        assert warm.statistics["s_points_computed"] == 0

    def test_distributed_matches_inline(self, passage_query, inline_result, tmp_path):
        engine = DistributedEngine(checkpoint=str(tmp_path / "ckpt"))
        result = passage_query.run(engine)
        np.testing.assert_allclose(result.density, inline_result.density, **PARITY)
        np.testing.assert_allclose(result.cdf, inline_result.cdf, **PARITY)
        assert result.quantiles[0.9] == pytest.approx(
            inline_result.quantiles[0.9], abs=1e-10
        )
        # A resumed run answers the main grid from the checkpoint.
        resumed = passage_query.run(DistributedEngine(checkpoint=str(tmp_path / "ckpt")))
        np.testing.assert_allclose(resumed.density, inline_result.density, **PARITY)
        assert resumed.statistics["s_points_computed"] == 0


class TestTransientParity:
    @pytest.fixture(scope="class")
    def transient_query(self, voting_spec):
        model = Model.from_spec(voting_spec)
        return model.transient("p1 == CC", "p2 >= 1").probability([1.0, 5.0, 25.0])

    def test_remote_matches_inline(self, transient_query, server_url):
        inline = transient_query.run()
        remote = transient_query.run(engine="remote", url=server_url)
        assert isinstance(inline, TransientResult)
        np.testing.assert_allclose(remote.probability, inline.probability, **PARITY)
        assert remote.steady_state == pytest.approx(inline.steady_state, abs=1e-10)

    def test_distributed_matches_inline(self, transient_query):
        inline = transient_query.run()
        dist = transient_query.run(engine="distributed")
        np.testing.assert_allclose(dist.probability, inline.probability, **PARITY)
        assert dist.steady_state == pytest.approx(inline.steady_state, abs=1e-10)


class TestLaguerreParity:
    def test_laguerre_inline_vs_remote(self, voting_spec, server_url):
        query = (
            Model.from_spec(voting_spec)
            .passage("p1 == CC", "p2 == CC")
            .density(T_POINTS)
            .with_inversion("laguerre")
        )
        inline = query.run()
        remote = query.run(engine="remote", url=server_url)
        np.testing.assert_allclose(remote.density, inline.density, **PARITY)


# ---------------------------------------------------------------------------
# The parity matrix: engine x inversion x kind x solver against inline.
#
# Every local engine is the same loop over a different store and executor,
# and the service shares its measure helpers — so the engines must agree to
# 1e-10 and the service must equal the inline engine bit for bit.
# ---------------------------------------------------------------------------

LOCAL_ENGINES = {
    "multiprocessing": lambda tmp: dict(engine="multiprocessing", workers=2),
    "distributed": lambda tmp: dict(engine="distributed", checkpoint=str(tmp)),
    "distributed-pool": lambda tmp: dict(
        engine="distributed", workers=2, checkpoint=str(tmp)
    ),
}

_INLINE: dict = {}


def _matrix_query(voting_spec, kind, inversion, solver, **options):
    model = Model.from_spec(voting_spec, name="voting-matrix")
    if kind == "passage":
        query = model.passage("p1 == CC", "p2 == CC").density(T_POINTS).cdf()
    else:
        query = model.transient("p1 == CC", "p2 >= 1").probability(T_POINTS)
    return query.with_inversion(inversion, **options).with_solver(solver)


def _curves(result) -> list[np.ndarray]:
    if isinstance(result, PassageTimeResult):
        return [result.density, result.cdf]
    return [result.probability]


@pytest.mark.parametrize("solver", ["iterative", "direct"])
@pytest.mark.parametrize("kind", ["passage", "transient"])
@pytest.mark.parametrize("inversion", ["euler", "laguerre"])
@pytest.mark.parametrize("engine", sorted(LOCAL_ENGINES))
def test_local_engines_match_inline(engine, inversion, kind, solver, voting_spec, tmp_path):
    options = {"n_points": 64} if inversion == "laguerre" else {}
    query = _matrix_query(voting_spec, kind, inversion, solver, **options)
    case = (inversion, kind, solver)
    if case not in _INLINE:
        _INLINE[case] = query.run()
    inline = _INLINE[case]
    result = query.run(**LOCAL_ENGINES[engine](tmp_path))
    for got, expected in zip(_curves(result), _curves(inline)):
        np.testing.assert_allclose(got, expected, **PARITY)
    # the raw values are keyed the same way whichever engine gathered them
    keys = query.plan().s_keys
    assert list(inline.transform_values) == keys
    assert sorted(result.transform_values, key=keys.index) == keys
    assert result.statistics["s_points_computed"] == len(keys)
    assert result.statistics["engine"] == engine.split("-")[0]


def _measured(reply: dict) -> dict:
    """A reply without the two keys that name the surface, not the measure."""
    return {k: v for k, v in reply.items() if k not in ("statistics", "model")}


@pytest.mark.parametrize("inversion", ["euler", "laguerre"])
def test_service_equals_inline_bit_for_bit(inversion, voting_spec):
    """The surface matrix: one query object, five ways to ask — the inline
    engine, the in-process service, sync HTTP, an async job, the remote
    engine — and replies equal key for key with floats ``==``."""
    import threading

    from repro.service import AnalysisService, ServiceClient, create_server

    model = Model.from_spec(voting_spec, name="voting-matrix")
    queries = [
        model.passage("p1 == CC", "p2 == CC").density(T_POINTS).cdf().quantile(0.9),
        model.transient("p1 == CC", "p2 >= 1").probability(T_POINTS),
    ]
    service = AnalysisService()
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    client = ServiceClient(url)
    try:
        for query in queries:
            query = query.with_inversion(inversion)
            inline = query.run()
            expected = _measured(inline.to_wire())
            assert set(expected) >= {"measure", "t_points"} | (
                {"density", "cdf", "quantile"} if query.kind == "passage"
                else {"probability", "steady_state"}
            )
            job = client.submit(query.kind, **query.to_wire())
            replies = {
                "service": getattr(service, query.kind)(**query.to_wire()),
                "http": getattr(client, query.kind)(**query.to_wire()),
                "job": client.wait(job["job"], timeout=120)["result"],
                "remote": query.run(engine="remote", url=url).to_wire(),
            }
            for surface, reply in replies.items():
                assert _measured(reply) == expected, surface
            assert "model_registered" in replies["http"]["statistics"]
            assert inline.statistics["engine"] == "inline"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


class TestCheckpointedEngine:
    """What the checkpoint-backed store adds, seen from the facade."""

    def test_resumed_quantile_query_computes_nothing(self, passage_query, tmp_path):
        """Quantile probes land in the checkpoint like the main grid does."""
        first = passage_query.run(engine="distributed", checkpoint=str(tmp_path))
        scheduled = passage_query.plan().n_evaluations
        assert first.statistics["s_points_computed"] > scheduled  # grid + probes
        resumed = passage_query.run(engine="distributed", checkpoint=str(tmp_path))
        assert resumed.statistics["s_points_computed"] == 0
        assert resumed.statistics["s_points_from_disk"] >= scheduled
        assert resumed.quantiles == first.quantiles
        np.testing.assert_array_equal(resumed.cdf, first.cdf)

    def test_checkpoints_are_per_measure(self, voting_spec, tmp_path):
        from repro.distributed import CheckpointStore

        model = Model.from_spec(voting_spec)
        for target in ("p2 == CC", "p2 >= 1"):
            result = model.passage("p1 == CC", target).density([5.0]).run(
                engine="distributed", checkpoint=str(tmp_path)
            )
            assert result.statistics["s_points_computed"] == 33
        assert len(CheckpointStore(tmp_path).digests()) == 2

    def test_laguerre_conjugate_folding_halves_the_work(self, voting_spec):
        query = (
            Model.from_spec(voting_spec).passage("p1 == CC", "p2 == CC")
            .density(T_POINTS).with_inversion("laguerre", n_points=64)
        )
        plan, statistics = query.plan(), query.run().statistics
        assert statistics["conjugates_folded"] == plan.conjugates_folded > 0
        assert statistics["s_points_computed"] == plan.n_evaluations
        assert plan.n_evaluations <= plan.required_s_points.size // 2 + 1

    def test_resume_from_per_block_checkpoint(self, passage_query, tmp_path, monkeypatch):
        """A pool run killed on its last block leaves every earlier block on
        disk; the resumed run computes only the remainder."""
        from repro.distributed import CheckpointStore, MultiprocessingBackend

        query = passage_query  # density + CDF + a quantile
        reference = query.run()
        scheduled = query.plan().n_evaluations
        n_blocks = -(-scheduled // 4)
        store = CheckpointStore(tmp_path)

        monkeypatch.setenv("REPRO_FAULTS", f"worker.solve=crash:block={n_blocks - 1}")
        backend = MultiprocessingBackend(processes=1, block_size=4, max_retries=0)
        with pytest.raises(Exception, match="1 time"):
            query.run(DistributedEngine(backend=backend, checkpoint=store))
        backend.close()
        (digest,) = store.digests()
        checkpointed = store.count(digest)
        assert checkpointed == scheduled - scheduled % 4 or checkpointed == scheduled - 4

        monkeypatch.delenv("REPRO_FAULTS")
        backend = MultiprocessingBackend(processes=1, block_size=4)
        resumed = query.run(DistributedEngine(backend=backend, checkpoint=store))
        backend.close()
        probes = resumed.statistics["s_points_computed"] - (scheduled - checkpointed)
        assert resumed.statistics["s_points_from_disk"] == checkpointed
        assert probes > 0  # the quantile's points, on top of the remainder only
        np.testing.assert_allclose(resumed.density, reference.density, **PARITY)
        assert resumed.quantiles[0.9] == pytest.approx(reference.quantiles[0.9], abs=1e-10)
        # the workers solved the remainder and every probe: one scheduler a
        # run, nothing falls back to the calling process
        workers = resumed.statistics["workers"]
        assert (
            sum(entry["points"] for entry in workers.values())
            == resumed.statistics["s_points_computed"]
        )


class TestDigestEpoch:
    """Kernel, job, checkpoint and plane keys all hang off ``DIGEST_EPOCH``;
    model ids do not.  A directory written under another epoch — what an
    upgrade across a value-moving change leaves behind — is therefore never
    read and never touched."""

    @staticmethod
    def _run(voting_spec, directory):
        # a fresh registry every time: a kernel memoises its digest
        model = Model.from_spec(voting_spec, registry=ModelRegistry())
        query = model.passage("p1 == CC", "p2 == CC").density(T_POINTS).cdf()
        result = query.run(engine="distributed", workers=2, checkpoint=str(directory))
        sources, targets = resolve_state_sets(model.entry, query.source, query.target)
        job = build_job(
            model.entry, query.kind, sources, targets,
            solver=query.solver, epsilon=query.epsilon,
        )
        return model, job, result

    def test_the_epoch_moves_every_derived_digest_and_no_model_id(
        self, voting_spec, tmp_path, monkeypatch
    ):
        seen = []
        for epoch in (kernel_module.DIGEST_EPOCH, b"another-epoch"):
            monkeypatch.setattr(kernel_module, "DIGEST_EPOCH", epoch)
            directory = tmp_path / epoch.decode()
            model, job, _ = self._run(voting_spec, directory)
            kernel_digest = kernel_content_digest(model.entry.kernel)
            assert [p.name for p in (directory / "planes").iterdir()] == [
                f"{kernel_digest}.csr.plane"
            ]
            assert CheckpointStore(directory).digests() == [job.digest()]
            seen.append((model.digest, kernel_digest, job.digest()))
        (model_id, kernel_digest, job_digest), other = seen
        assert other[0] == model_id
        assert other[1] != kernel_digest and other[2] != job_digest

    def test_a_directory_of_another_epoch_is_neither_read_nor_touched(
        self, voting_spec, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr(kernel_module, "DIGEST_EPOCH", b"the-parent's")
            self._run(voting_spec, tmp_path)
        old = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert len(old) == 3  # a checkpoint, its lock file, a plane

        first = self._run(voting_spec, tmp_path)[2].statistics
        assert first["s_points_from_disk"] == 0 and first["s_points_computed"] > 0
        second = self._run(voting_spec, tmp_path)[2].statistics
        assert second["s_points_computed"] == 0
        assert second["s_points_from_disk"] == first["s_points_computed"]
        assert {p: p.read_bytes() for p in old} == old
        assert len([p for p in tmp_path.rglob("*") if p.is_file()]) == 6
