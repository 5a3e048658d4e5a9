"""Kernel-plane round trips: build once, attach zero-copy, evaluate identically.

The plane is a file holding a kernel's image, ``kernel.csr`` (plus the
factored engine's per-distribution slices).  These tests pin down the three
contract points the execution stack depends on: the handle is tiny and
picklable, attaching reconstructs arrays as *views* into the mapping (no
copies), and an evaluator rebuilt from a plane computes bit-identical
transform values.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob
from repro.smp import (
    KernelPlane,
    PlaneHandle,
    PlaneStore,
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
        reference, _ = _job(kernel).evaluate_batch(S_POINTS)
        plane = KernelPlane.build(evaluator, plane_path)
        try:
            attached = plane.handle().attach()
            job = _job(attached.kernel)
            job.attach_evaluator(attached.evaluator)
            values, _ = job.evaluate_batch(S_POINTS)
            np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-12)
            attached.close()
        finally:
            plane.unlink()

    def test_factored_slices_prefilled(self, kernel, evaluator, plane_path):
        factored = evaluator.factored()
        plane = KernelPlane.build(evaluator, plane_path, include_factored=True)
        try:
            attached = plane.handle().attach()
            assert attached.factored
            assert attached.evaluator.factored_built
            rebuilt = attached.evaluator.factored()
            exported = factored.export()
            for name, array in rebuilt.export().items():
                np.testing.assert_array_equal(array, exported[name])
                assert not array.flags["OWNDATA"], name  # adopted, not recomputed
            col, rebuilt_col = factored.col_structure(), rebuilt.col_structure()
            assert rebuilt_col.n_pairs == col.n_pairs
            np.testing.assert_array_equal(
                rebuilt_col.matrix.toarray(), col.matrix.toarray()
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
        reference, _ = _job(kernel).evaluate_batch(S_POINTS)
        values, _ = job.evaluate_batch(S_POINTS)
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

    def test_factored_export_is_a_separate_file(self, evaluator, tmp_path):
        store = PlaneStore(tmp_path / "planes")
        evaluator.factored().prewarm()
        evaluator.factored().col_structure()
        store.export(evaluator, include_factored=False)
        store.export(evaluator, include_factored=True)
        assert len(list(store.directory.glob("*.plane"))) == 2
        # csr attach prefers the csr file but falls back to the factored one.
        digest = store.digests()[0]
        store.path_for(digest, factored=False).unlink()
        attached = store.attach(digest)
        assert attached.factored
        attached.close()

    def test_missing_digest_raises(self, tmp_path):
        store = PlaneStore(tmp_path / "planes")
        with pytest.raises(FileNotFoundError):
            store.attach("0" * 64)
