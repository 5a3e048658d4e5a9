"""Kernel-plane round trips: build once, attach zero-copy, evaluate identically.

The plane is a file holding a kernel's image, ``kernel.csr``, and nothing
else: whatever an engine solves with beyond it is derived where it runs.
These tests pin down the three contract points the execution stack depends
on: the handle is tiny and picklable, attaching reconstructs arrays as *views*
into the mapping (no copies), and an evaluator rebuilt from a plane computes
bit-identical transform values.
"""
from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob
from repro.models import SCALED_CONFIGURATIONS, voting_spec_text
from repro.service.registry import ModelRegistry
from repro.smp import (
    KernelPlane,
    PlaneHandle,
    PlaneStore,
    SPointPolicy,
    kernel_content_digest,
    source_weights,
)
from tests.smp.conftest import random_kernel


@pytest.fixture
def kernel(rng):
    return random_kernel(rng, 12, density=0.3)


@pytest.fixture
def evaluator(kernel):
    return kernel.evaluator()


@pytest.fixture
def plane_path(tmp_path):
    return tmp_path / "kernel.plane"


S_POINTS = np.array([0.5 + 1.0j, 1.5 + 2.0j, 2.0 - 0.5j, 0.1 + 7.0j])

#: the arrays of a plane: ``SMPKernel.csr``, in layout order
CSR_ARRAYS = ["indptr", "indices", "csr_probs", "csr_dist_index", "csr_rows"]


def _job(kernel):
    return PassageTimeJob(
        kernel=kernel, alpha=source_weights(kernel, [0]), targets=[1]
    )


class TestShmPlane:
    def test_handle_is_tiny_and_picklable(self, evaluator, plane_path):
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            payload = pickle.dumps(plane.handle())
            assert len(payload) < 512
            assert pickle.loads(payload) == plane.handle()
        finally:
            plane.unlink()

    def test_attach_is_zero_copy(self, kernel, evaluator, plane_path):
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            attached = plane.handle().attach()
            for name, array in attached.arrays.items():
                assert not array.flags["OWNDATA"], name
            np.testing.assert_array_equal(
                attached.arrays["csr_probs"], kernel.csr.probs
            )
            np.testing.assert_array_equal(
                attached.arrays["indptr"], kernel.csr.indptr
            )
            attached.close()
        finally:
            plane.unlink()

    def test_digest_round_trip(self, kernel, evaluator, plane_path):
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            attached = plane.handle().attach()
            assert attached.digest == kernel_content_digest(kernel)
            # The reconstructed kernel reports the same content digest, so
            # JobSpec.build and checkpoint keys agree across processes.
            assert kernel_content_digest(attached.kernel) == attached.digest
            attached.close()
        finally:
            plane.unlink()

    def test_attached_evaluator_matches_original(self, kernel, evaluator, plane_path):
        reference = _job(kernel).evaluate_batch(S_POINTS)
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            attached = plane.handle().attach()
            job = _job(attached.kernel)
            job.attach_evaluator(attached.evaluator)
            values = job.evaluate_batch(S_POINTS)
            np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)
            attached.close()
        finally:
            plane.unlink()

    def test_attached_evaluator_builds_equal_row_structures(
        self, kernel, evaluator, plane_path
    ):
        """The factored engine's structures are not in the plane: an attached
        evaluator derives them from the image, equal to the original's."""
        factored = evaluator.factored()
        factored.prewarm()  # built on the exporter's side: still not exported
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            attached = plane.handle().attach()
            assert list(attached.arrays) == CSR_ARRAYS
            rebuilt = attached.evaluator.factored()
            masks = np.zeros((2, kernel.n_states), dtype=bool)
            masks[0, -1] = True  # a passage's target; the transient absorbs nothing
            for mask in masks:
                row, rebuilt_row = factored.row_structure(mask), rebuilt.row_structure(mask)
                assert rebuilt_row.n_pairs == row.n_pairs
                np.testing.assert_array_equal(rebuilt_row.pair_src, row.pair_src)
                np.testing.assert_array_equal(rebuilt_row.pair_dist, row.pair_dist)
                np.testing.assert_array_equal(
                    rebuilt_row.matrix.toarray(), row.matrix.toarray()
                )
            alpha = source_weights(kernel, [0])
            np.testing.assert_array_equal(
                rebuilt.alpha_dist_matrix(alpha), factored.alpha_dist_matrix(alpha)
            )
            np.testing.assert_array_equal(
                attached.evaluator.dist_row_sums(), evaluator.dist_row_sums()
            )
            attached.close()
        finally:
            plane.unlink()

    def test_unlink_is_idempotent(self, evaluator, plane_path):
        plane = KernelPlane.build(evaluator, plane_path)
        plane.unlink()
        plane.unlink()
        with pytest.raises(FileNotFoundError):
            plane.handle().attach()


class TestFilePlane:
    def test_file_backing_round_trip(self, kernel, evaluator, tmp_path):
        path = tmp_path / "nested" / "kernel.plane"
        plane = KernelPlane.build(evaluator, path)
        assert path.exists()
        attached = plane.handle().attach()
        job = _job(attached.kernel)
        job.attach_evaluator(attached.evaluator)
        reference = _job(kernel).evaluate_batch(S_POINTS)
        values = job.evaluate_batch(S_POINTS)
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)
        attached.close()
        plane.unlink()
        assert not path.exists()

    def test_file_backing_requires_path(self, evaluator):
        """A plane is a file: there is nowhere else to build one."""
        with pytest.raises(TypeError):
            KernelPlane.build(evaluator)

    def test_unknown_backing_rejected(self, evaluator, tmp_path):
        """... and the ``backing=`` / handle-``kind`` fork is gone with shm."""
        with pytest.raises(TypeError):
            KernelPlane.build(evaluator, tmp_path / "k.plane", backing="shm")
        with pytest.raises(TypeError):
            PlaneHandle("file", str(tmp_path / "k.plane"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.plane"
        path.write_bytes(b"not a plane at all, sorry" * 4)
        with pytest.raises(ValueError, match="magic"):
            PlaneHandle(str(path)).attach()


class TestPlaneStore:
    def test_export_attach_by_digest(self, kernel, evaluator, tmp_path):
        store = PlaneStore(tmp_path / "planes")
        handle = store.export(evaluator)
        digest = kernel_content_digest(kernel)
        assert store.digests() == [digest]
        assert store.size_bytes() > 0
        attached = store.attach(digest)
        assert attached.digest == digest
        attached.close()
        # Idempotent: a second export reuses the existing file.
        assert store.export(evaluator) == handle

    def test_one_file_per_digest_whatever_the_engine(self, kernel, tmp_path):
        """Asking for the factored engine, or building its structures, does
        not change what is exported: one ``<digest>.csr.plane`` per kernel."""
        digest = kernel_content_digest(kernel)
        for k, touch in enumerate((
            lambda ev: None,
            lambda ev: ev.factored(),
            lambda ev: ev.factored().prewarm(),
            lambda ev: SPointPolicy(engine="factored").resolve_engine(ev),
        )):
            store = PlaneStore(tmp_path / f"planes{k}")
            evaluator = kernel.evaluator()
            touch(evaluator)
            handle = store.export(evaluator)
            assert [p.name for p in store.directory.iterdir()] == [f"{digest}.csr.plane"]
            assert Path(handle.path) == store.path_for(digest)
            attached = store.attach(digest)
            assert list(attached.arrays) == CSR_ARRAYS
            attached.close()

    def test_a_registered_batch_model_exports_its_image_only(self, tmp_path):
        """The registry asks every kernel for its factored engine when it
        resolves ``auto``; a batch model's export is still the CSR image, and
        a factored variant an older release left beside it is neither read
        nor deleted."""
        entry, _ = ModelRegistry().register(
            voting_spec_text(SCALED_CONFIGURATIONS["small"])
        )
        assert SPointPolicy().resolve_engine(entry.evaluator) == "batch"
        digest = kernel_content_digest(entry.kernel)
        store = PlaneStore(tmp_path / "planes")
        stray = store.directory / f"{digest}.fac.plane"
        stray.write_bytes(b"an older release's factored variant")
        stamp = stray.stat().st_mtime_ns
        handle = store.export(entry.evaluator)
        assert Path(handle.path).name == f"{digest}.csr.plane"
        assert sorted(p.name for p in store.directory.iterdir()) == [
            f"{digest}.csr.plane", f"{digest}.fac.plane",
        ]
        attached = store.attach(digest)
        assert list(attached.arrays) == CSR_ARRAYS
        attached.close()
        assert store.digests() == [digest]
        assert store.size_bytes() == Path(handle.path).stat().st_size
        # attach reads the csr file or nothing: no fall-back to the stray
        Path(handle.path).unlink()
        with pytest.raises(FileNotFoundError):
            store.attach(digest)
        assert stray.read_bytes() == b"an older release's factored variant"
        assert stray.stat().st_mtime_ns == stamp

    def test_missing_digest_raises(self, tmp_path):
        store = PlaneStore(tmp_path / "planes")
        with pytest.raises(FileNotFoundError):
            store.attach("0" * 64)
