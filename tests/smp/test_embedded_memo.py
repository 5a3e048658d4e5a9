"""The embedded stationary vector is solved once per kernel, lazily.

``SMPKernel.embedded_steady_state`` memoises the vector every multi-source
``alpha`` (Eq. 5) and every long-run probability derive from.  These tests
pin the contract: one solve per kernel however many measures ask (also under
concurrent first use), numbers bit-identical to an unmemoised solve, nothing
about pickling or plane attach changed, an explicit vector bypasses the memo
(and there is no method to name), and the one solve is visible in the metrics
and the trace.
"""
from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob, TransientJob
from repro.models import (
    SCALED_CONFIGURATIONS,
    alternating_renewal_kernel,
    birth_death_kernel,
    build_voting_kernel,
    cyclic_server_kernel,
    mg1_queue_kernel,
    web_server_net,
)
from repro.obs import get_tracer
from repro.obs.metrics import get_metrics
from repro.petri import build_kernel, explore
from repro.smp import (
    KernelPlane,
    dtmc_steady_state,
    embedded,
    smp_steady_state,
    source_weights,
    steady_state_probability,
)
from tests.smp.conftest import random_kernel

BUNDLED = {
    "alternating-renewal": lambda: alternating_renewal_kernel(),
    "birth-death": lambda: birth_death_kernel(6),
    "cyclic-server": lambda: cyclic_server_kernel(3),
    "mg1-queue": lambda: mg1_queue_kernel(5),
    "web-server": lambda: build_kernel(explore(web_server_net(servers=2, queue_capacity=2))),
    "voting-tiny": lambda: build_voting_kernel(SCALED_CONFIGURATIONS["tiny"])[0],
}


@pytest.fixture
def kernel(rng):
    return random_kernel(rng, 12, density=0.3)


def _multi_source(kernel) -> np.ndarray:
    return np.arange(max(2, kernel.n_states // 2))


class TestSolvedOnce:
    def test_every_consumer_shares_one_solve(self, kernel, embedded_solves):
        assert embedded_solves == []  # building a kernel embedded_solves nothing
        source_weights(kernel, [3])
        assert embedded_solves == []  # a single source is a unit vector
        for sources in ([0, 1], [2, 5, 7], [0, 1]):
            source_weights(kernel, sources)
        smp_steady_state(kernel)
        steady_state_probability(kernel, [1, 2])
        steady_state_probability(kernel, [4])
        assert embedded_solves == [kernel.n_states]
        assert kernel.embedded_steady_state() is kernel.embedded_steady_state()

    def test_eight_concurrent_first_queries_wait_on_one_solve(self, kernel, monkeypatch):
        calls = []
        real = embedded.dtmc_steady_state

        def slow(P):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # hold the solve open while the others arrive
            return real(P)

        monkeypatch.setattr(embedded, "dtmc_steady_state", slow)
        barrier = threading.Barrier(8)
        results: list[np.ndarray] = []

        def first_query():
            barrier.wait(timeout=10)
            source_weights(kernel, [0, 1, 2])
            results.append(kernel.embedded_steady_state())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=first_query) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(results) == 8 and all(r is results[0] for r in results)

    def test_memo_is_read_only(self, kernel):
        pi = kernel.embedded_steady_state()
        with pytest.raises(ValueError):
            pi[0] = 1.0
        assert smp_steady_state(kernel).flags.writeable  # derived vectors are fresh


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_alpha_and_digests_equal_the_unmemoised_computation(name):
    kernel = BUNDLED[name]()
    sources = _multi_source(kernel)
    targets = [kernel.n_states - 1]
    unmemoised = source_weights(
        kernel, sources, steady_state=dtmc_steady_state(kernel.embedded_matrix())
    )
    assert kernel._embedded_pi is None
    memoised = source_weights(kernel, sources)
    again = source_weights(kernel, sources)  # served from the memo
    assert np.array_equal(memoised, unmemoised) and np.array_equal(again, unmemoised)
    for job_type in (PassageTimeJob, TransientJob):
        expected = job_type(kernel=kernel, alpha=unmemoised, targets=targets).digest()
        assert job_type(kernel=kernel, alpha=again, targets=targets).digest() == expected
    assert steady_state_probability(kernel, targets) == steady_state_probability(
        kernel, targets, embedded_pi=dtmc_steady_state(kernel.embedded_matrix())
    )


class TestBypass:
    def test_explicit_vector_or_method_never_touches_the_memo(self, kernel, embedded_solves):
        pi = dtmc_steady_state(kernel.embedded_matrix())
        source_weights(kernel, [0, 1], steady_state=pi)
        smp_steady_state(kernel, embedded_pi=pi)
        assert embedded_solves == []
        assert kernel._embedded_pi is None
        # one solver: nothing takes a method, so nothing can solve a second way
        for call in (
            lambda: source_weights(kernel, [0, 1], method="power"),
            lambda: smp_steady_state(kernel, method="direct"),
            lambda: steady_state_probability(kernel, [0], method="direct"),
            lambda: kernel.embedded_steady_state("power"),
        ):
            with pytest.raises(TypeError):
                call()
        assert embedded_solves == [] and kernel._embedded_pi is None


class TestPicklingAndPlane:
    def test_kernel_pickle_carries_neither_lock_nor_memo(self, kernel, embedded_solves):
        cold = pickle.dumps(kernel)
        kernel.embedded_steady_state()
        assert pickle.dumps(kernel) == cold
        clone = pickle.loads(cold)
        assert clone._embedded_pi is None
        assert np.array_equal(
            source_weights(clone, [0, 1]), source_weights(kernel, [0, 1])
        )
        assert len(embedded_solves) == 2  # one per process-local kernel object

    def test_whole_job_pickle_round_trip(self, kernel):
        job = PassageTimeJob(
            kernel=kernel, alpha=source_weights(kernel, [0, 1, 2]), targets=[5]
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.digest() == job.digest()
        s = 0.7 + 1.3j
        assert clone.evaluate_many([s]) == job.evaluate_many([s])

    def test_plane_attached_kernel_memoises_too(self, kernel, embedded_solves, tmp_path):
        plane = KernelPlane.build(kernel.evaluator(), tmp_path / "kernel.plane")
        try:
            mapping = plane.handle().attach()
            attached = mapping.kernel
            assert attached._embedded_pi is None
            alpha = source_weights(attached, [0, 1, 2])
            source_weights(attached, [3, 4])
            assert len(embedded_solves) == 1
            # a kernel is its image: the attached one solves the same system
            assert np.array_equal(alpha, source_weights(kernel, [0, 1, 2]))
            mapping.close()
        finally:
            plane.unlink()


class TestObservability:
    def test_one_solve_is_counted_timed_and_traced(self, kernel):
        metrics = get_metrics()
        before = metrics.snapshot()
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        try:
            for sources in ([0, 1], [2, 3, 4]):
                source_weights(kernel, sources)
            spans = [s for s in tracer.spans() if s["name"] == "embedded-steady-state"]
        finally:
            tracer.disable()
            tracer.clear()
        delta = metrics.diff(before)
        assert delta["repro_embedded_steady_state_solves_total"]["values"] == {"[]": 1.0}
        assert delta["repro_embedded_steady_state_seconds"]["values"]["[]"]["count"] == 1
        (span,) = spans
        attributes = span["attributes"]
        assert attributes["n_states"] == kernel.n_states
        assert "method" not in attributes
        assert 1 <= attributes["iterations"] <= 40  # GMRES's, inside one restart
        assert 0 <= attributes["pinned_state"] < kernel.n_states
        assert attributes["ilu_fill"] > 0.0
        assert 0.0 <= attributes["residual"] <= 1e-8
        assert "repro_embedded_steady_state_solves_total" in metrics.render_prometheus()

    def test_a_vector_that_is_not_stationary_fails_loudly(self, kernel, monkeypatch):
        n = kernel.n_states
        # every state as heavy as the pinned one: a distribution, not the stationary one
        monkeypatch.setattr(
            "scipy.sparse.linalg.gmres", lambda *args, **kwargs: (np.ones(n - 1), 0)
        )
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            dtmc_steady_state(kernel.embedded_matrix())
        with pytest.raises(np.linalg.LinAlgError):
            kernel.embedded_steady_state()
        assert kernel._embedded_pi is None  # a failed solve is not memoised
