"""Tests for the SMP kernel representation and its builder."""
from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.distributions import Erlang, Exponential, Mixture, Uniform
from repro.models import VotingParameters
from repro.models.voting import build_voting_net
from repro.petri import build_kernel, explore
from repro.smp import SMPBuilder, SMPKernel
from tests import reference


def u_matrix(kernel, s) -> np.ndarray:
    """Dense ``U(s)`` from the shipped LST fill: a one-point grid's data over
    the kernel's image."""
    (data,) = kernel.evaluator().u_data_batch([s])
    n = kernel.n_states
    return sparse.csr_matrix((data, kernel.csr.indices, kernel.csr.indptr), shape=(n, n)).toarray()


class TestBuilder:
    def test_named_states_resolve(self, two_state_kernel):
        assert two_state_kernel.n_states == 2
        assert two_state_kernel.state_index("a") == 0
        assert two_state_kernel.state_index("b") == 1
        with pytest.raises(KeyError):
            two_state_kernel.state_index("missing")

    def test_parallel_transitions_merge_into_mixture(self):
        b = SMPBuilder()
        b.add_state("x")
        b.add_state("y")
        b.add_transition("x", "y", 0.25, Exponential(1.0))
        b.add_transition("x", "y", 0.75, Erlang(2.0, 2))
        b.add_transition("y", "x", 1.0, Exponential(3.0))
        k = b.build()
        assert k.n_transitions == 2
        # The merged transition has total probability 1 and a Mixture sojourn.
        idx = np.where((k.csr.rows == 0) & (k.csr.indices == 1))[0][0]
        assert k.csr.probs[idx] == pytest.approx(1.0)
        dist = k.distributions[k.csr.dist_index[idx]]
        assert isinstance(dist, Mixture)
        assert np.allclose(dist.weights, [0.25, 0.75])
        # The builder merges nothing itself: the same three branches given to
        # from_columns are the same kernel, array for array.
        direct = SMPKernel.from_columns(
            2, [0, 0, 1], [1, 1, 0], [0.25, 0.75, 1.0], [0, 1, 2],
            [Exponential(1.0), Erlang(2.0, 2), Exponential(3.0)],
        )
        for column, ours, theirs in zip(k.csr._fields, k.csr, direct.csr):
            assert np.array_equal(ours, theirs), column
        assert k.distributions == direct.distributions
        assert k.distributions[:3] == [Exponential(1.0), Erlang(2.0, 2), Exponential(3.0)]
        assert np.array_equal(dist.weights, direct.distributions[3].weights)
        assert dist.components == [Exponential(1.0), Erlang(2.0, 2)]

    def test_normalise_option_rescales_weights(self):
        b = SMPBuilder()
        b.add_transition(0, 1, 3.0, Exponential(1.0))
        b.add_transition(0, 0, 1.0, Exponential(1.0))
        b.add_transition(1, 0, 5.0, Exponential(2.0))
        k = b.build(normalise=True)
        P = k.embedded_matrix().toarray()
        assert P[0, 1] == pytest.approx(0.75)
        assert P[0, 0] == pytest.approx(0.25)
        assert P[1, 0] == pytest.approx(1.0)

    def test_unnormalised_rows_rejected(self):
        b = SMPBuilder()
        b.add_transition(0, 1, 0.5, Exponential(1.0))
        b.add_transition(1, 0, 1.0, Exponential(1.0))
        with pytest.raises(ValueError, match="sum to 1"):
            b.build()

    def test_state_without_outgoing_transitions_rejected(self):
        b = SMPBuilder(n_states=3)
        b.add_transition(0, 1, 1.0, Exponential(1.0))
        b.add_transition(1, 0, 1.0, Exponential(1.0))
        with pytest.raises(ValueError, match="outgoing"):
            b.build()

    def test_duplicate_state_name_rejected(self):
        b = SMPBuilder()
        b.add_state("x")
        with pytest.raises(ValueError):
            b.add_state("x")

    def test_zero_probability_transitions_dropped(self):
        b = SMPBuilder()
        b.add_transition(0, 1, 1.0, Exponential(1.0))
        b.add_transition(0, 1, 0.0, Erlang(1.0, 2))
        b.add_transition(1, 0, 1.0, Exponential(1.0))
        k = b.build()
        assert k.n_transitions == 2
        assert not isinstance(k.distributions[0], Mixture)

    def test_non_distribution_rejected(self):
        b = SMPBuilder()
        with pytest.raises(TypeError):
            b.add_transition(0, 1, 1.0, "not a distribution")

    def test_empty_builder_rejected(self):
        with pytest.raises(ValueError):
            SMPBuilder().build()


class TestKernel:
    def test_from_arrays_dedupes_distributions(self):
        d = Exponential(1.0)
        k = SMPKernel.from_arrays(
            2, [(0, 1, 1.0, d), (1, 0, 1.0, Exponential(1.0))]
        )
        assert k.n_distributions == 1

    def test_embedded_matrix_row_stochastic(self, branching_kernel):
        P = branching_kernel.embedded_matrix()
        assert isinstance(P, sparse.csr_matrix)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)

    def test_mean_sojourn_times(self, two_state_kernel):
        m = two_state_kernel.mean_sojourn_times()
        assert m[0] == pytest.approx(1.5)   # Erlang(2, 3)
        assert m[1] == pytest.approx(1.5)   # Uniform(1, 2)

    def test_u_matrix_values(self, two_state_kernel):
        s = 0.4 + 1.1j
        U = u_matrix(two_state_kernel, s)
        assert U[0, 1] == pytest.approx(Erlang(2.0, 3).lst(s))
        assert U[1, 0] == pytest.approx(Uniform(1.0, 2.0).lst(s))
        assert U[0, 0] == 0 and U[1, 1] == 0

    def test_u_matrix_at_zero_is_embedded_matrix(self, branching_kernel):
        U0 = u_matrix(branching_kernel, 0.0).real
        P = branching_kernel.embedded_matrix().toarray()
        assert np.allclose(U0, P)

    def test_u_prime_zeroes_target_rows(self, branching_kernel):
        """What the block operators zero to make the targets absorbing — the
        entries ``row_entries`` names — are exactly the target states' rows."""
        ev = branching_kernel.evaluator()
        mask = np.zeros(branching_kernel.n_states, dtype=bool)
        mask[[1, 3]] = True
        s = 0.2 + 0.9j
        data = ev.u_data_batch([s])[0].copy()
        data[ev.row_entries(np.flatnonzero(mask))] = 0.0
        Up = reference.u_prime(branching_kernel, s, mask)
        assert np.allclose(data, Up.data)
        assert np.allclose(Up.toarray()[mask], 0.0)
        assert np.allclose(Up.toarray()[~mask], u_matrix(branching_kernel, s)[~mask])

    def test_sojourn_lst_is_row_sum(self, branching_kernel):
        ev = branching_kernel.evaluator()
        s = 1.3 + 0.4j
        (h,) = ev.sojourn_lst_batch([s])
        assert np.allclose(h, u_matrix(branching_kernel, s).sum(axis=1))
        assert np.allclose(h, reference.sojourn_lsts(branching_kernel, s))

    def test_duplicate_transitions_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SMPKernel.from_arrays(
                2,
                [
                    (0, 1, 0.5, Exponential(1.0)),
                    (0, 1, 0.5, Erlang(1.0, 2)),
                    (1, 0, 1.0, Exponential(1.0)),
                ],
            )

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            SMPKernel.from_arrays(2, [(0, 5, 1.0, Exponential(1.0)), (1, 0, 1.0, Exponential(1.0))])

    def test_states_matching(self, branching_kernel):
        assert branching_kernel.states_matching(lambda n: n in {"s0", "s4"}) == [0, 4]

    def test_bad_state_names_length(self):
        with pytest.raises(ValueError):
            SMPKernel.from_arrays(
                2,
                [(0, 1, 1.0, Exponential(1.0)), (1, 0, 1.0, Exponential(1.0))],
                state_names=["only-one"],
            )


class TestRetention:
    """One image per kernel: what a build keeps, measured (``tracemalloc``)
    on voting (30, 8, 3) — 5,058 states, 22,548 edges."""

    def test_kernel_owns_the_image_and_evaluators_own_nothing(self):
        graph = explore(build_voting_net(VotingParameters(30, 8, 3)))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel = build_kernel(graph)
            evaluator = kernel.evaluator()
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            further = kernel.evaluator()
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kernel.n_transitions == 22_548 and further.csr is evaluator.csr
        # beyond the columns adopted from the state space: csr (28.8 B/edge)
        # and the int64-widened distribution index; before, 58 B/edge in
        # three layouts
        assert (built - before) / kernel.n_transitions <= 40.0
        # before: five private arrays, 29 B/edge (653 KB here)
        assert after - built < 4096
