"""The direct path against a dense oracle, and its ordering's contract.

Routed s-points are factored in a block-triangular ordering computed once
per evaluator and absorbing mask (:class:`repro.smp.linear.DirectOrdering`).
Whatever that ordering is, the solve must be the solve of Eq. (3) — and of
the transient's ``I - U(s)`` — so every case here is compared with
``numpy.linalg.solve`` on the full matrix (``tests.reference.dense``) to
1e-12 relative: a passage whose matrix falls apart into many strong
components, one whose matrix is one component, a source inside the target
set, self-loops (on a transient state and on a target), a transient, and
random kernels.  Then the two facts the cache promises: the ordering is
built once per (evaluator, mask) however many queries and blocks reach it,
and a point's value does not depend on the points that share its block;
and the cache holds under concurrent requests sharing one evaluator, for the
ordering and for the factored engine's row structure alike.
"""
from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Model, resolve_state_sets
from repro.distributions import Erlang, Exponential, Uniform
from repro.laplace import EulerInverter
from repro.models import VotingParameters, voting_spec_text
from repro.service.registry import ModelRegistry
from repro.smp import (
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
    transient_transform_batch,
)
from repro.smp.factored import _RowStructure
from repro.smp.linear import (
    DirectOrdering,
    passage_transform_direct_batch,
    transient_transform_direct_batch,
)
from tests.reference import dense_passage_vector, dense_transient_transform

from .conftest import random_kernel

RTOL = 1e-12
#: an Euler grid (33 points) and a few points off the Bromwich contour
S_POINTS = np.concatenate((
    EulerInverter().required_s_points([4.0]), [0.05 + 0.0j, 1.0 + 3.0j, 7.5 - 2.0j],
))


def _close(ours, reference) -> float:
    return float(np.max(np.abs(ours - reference)) / np.max(np.abs(reference)))


@pytest.fixture(scope="module")
def voting():
    model = Model.from_spec(
        voting_spec_text(VotingParameters(8, 3, 2)), registry=ModelRegistry()
    )
    return model.entry


def _states(entry, source, target):
    sources, targets = resolve_state_sets(entry, source, target)
    return np.asarray(sources), np.asarray(targets)


def _assert_passage_parity(evaluator, targets, s_points=S_POINTS):
    vectors = passage_transform_direct_batch(evaluator, targets, s_points)
    for s, vector in zip(s_points, vectors):
        assert _close(vector, dense_passage_vector(evaluator, targets, s)) <= RTOL, s


class TestAgainstTheDenseSolve:
    def test_a_passage_of_many_strong_components(self, voting):
        _, targets = _states(voting, "p1 == CC", "p2 == CC")
        mask = np.isin(np.arange(voting.n_states), targets)
        ordering = voting.evaluator.direct_ordering(mask)
        assert ordering.blocks > targets.size + 1  # the targets are singletons
        _assert_passage_parity(voting.evaluator, targets)

    def test_a_passage_of_one_strong_component(self, voting):
        _, targets = _states(voting, "p1 == CC", "p7 >= MM || p6 >= NN")
        mask = np.isin(np.arange(voting.n_states), targets)
        ordering = voting.evaluator.direct_ordering(mask)
        # the absorbed targets are singletons; everything else is one block
        assert ordering.blocks == targets.size + 1
        assert ordering.largest_block == voting.n_states - targets.size
        _assert_passage_parity(voting.evaluator, targets)

    def test_a_source_inside_the_target_set(self, voting):
        sources, targets = _states(voting, "p1 == CC", "p1 >= CC - 1")
        assert np.isin(sources, targets).all()
        alpha = source_weights(voting.kernel, sources)
        values, diags = passage_transform_batch(
            voting.evaluator, alpha, targets, S_POINTS, solver="direct"
        )
        assert {d.solver for d in diags} == {"direct"}
        expected = [alpha @ dense_passage_vector(voting.evaluator, targets, s) for s in S_POINTS]
        assert _close(values, np.asarray(expected)) <= RTOL

    def test_self_loops_on_a_transient_state_and_on_a_target(self):
        builder = SMPBuilder()
        builder.add_transition(0, 0, 0.3, Exponential(2.0))
        builder.add_transition(0, 1, 0.7, Erlang(1.5, 2))
        builder.add_transition(1, 2, 0.5, Uniform(0.2, 1.0))
        builder.add_transition(1, 0, 0.5, Exponential(1.0))
        builder.add_transition(2, 2, 0.4, Exponential(3.0))
        builder.add_transition(2, 3, 0.6, Exponential(0.5))
        builder.add_transition(3, 0, 1.0, Erlang(2.0, 3))
        evaluator = builder.build().evaluator()
        for targets in ([2], [3], [2, 3], [0]):
            _assert_passage_parity(evaluator, targets)

    def test_a_transient(self, voting):
        sources, targets = _states(voting, "p1 == CC", "p2 >= 4")
        alpha = source_weights(voting.kernel, sources)
        values = transient_transform_direct_batch(voting.evaluator, alpha, targets, S_POINTS)
        expected = [
            dense_transient_transform(voting.evaluator, alpha, targets, s) for s in S_POINTS
        ]
        assert _close(values, np.asarray(expected)) <= RTOL

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(2, 24),
        density=st.floats(0.0, 0.6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_kernels(self, seed, n_states, density, data):
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, n_states, density)
        targets = sorted(set(data.draw(
            st.lists(st.integers(0, n_states - 1), min_size=1, max_size=n_states)
        )))
        s_points = S_POINTS[::4]
        _assert_passage_parity(kernel.evaluator(), targets, s_points)
        alpha = source_weights(kernel, [data.draw(st.integers(0, n_states - 1))])
        values = transient_transform_direct_batch(kernel.evaluator(), alpha, targets, s_points)
        expected = [dense_transient_transform(kernel, alpha, targets, s) for s in s_points]
        assert _close(values, np.asarray(expected)) <= RTOL


class TestOneOrderingPerMeasure:
    def test_built_once_across_two_queries_and_two_blocks(self, voting, monkeypatch):
        from scipy.sparse import linalg as splinalg

        asked: list[tuple[str, str]] = []

        def spy(name):
            real = getattr(splinalg, name)

            def call(system, permc_spec=None, **options):
                asked.append((name, permc_spec))
                return real(system, permc_spec=permc_spec, **options)

            monkeypatch.setattr(splinalg, name, call)

        spy("splu")
        spy("spilu")
        evaluator = voting.kernel.evaluator()  # nothing cached yet
        sources, targets = _states(voting, "p1 == CC", "p2 == CC")
        alpha = source_weights(voting.kernel, sources)
        policy = SPointPolicy(max_block_bytes=1 << 20)
        # two t-points' grids each: more points than one direct block holds
        grids = [EulerInverter().required_s_points([t, 2 * t]) for t in (3.0, 9.0)]
        for grid in grids:
            report: dict = {}
            passage_transform_batch(
                evaluator, alpha, targets, grid, solver="direct", policy=policy, report=report
            )
            assert len(report["blocks"]) == 2
        points = sum(grid.size for grid in grids)
        assert asked == [("spilu", "COLAMD")] + [("splu", "NATURAL")] * points
        # a transient absorbs nothing: a mask of its own, ordered once too
        asked.clear()
        for grid in grids:
            transient_transform_batch(evaluator, alpha, targets, grid, solver="direct")
        assert asked == [("spilu", "COLAMD")] + [("splu", "NATURAL")] * points

    def test_a_routed_points_value_does_not_depend_on_its_block(self, voting):
        sources, targets = _states(voting, "p1 == CC", "p2 == CC")
        alpha = source_weights(voting.kernel, sources)
        grid = EulerInverter().required_s_points([6.0])
        # every point routed by the policy, in blocks of the whole grid ...
        routed = SPointPolicy(predicted_iteration_limit=1)
        together, diags = passage_transform_batch(
            voting.evaluator, alpha, targets, grid, policy=routed
        )
        assert {d.solver for d in diags} == {"direct"}
        # ... alone, and shuffled among other points
        for k, s in enumerate(grid):
            alone, _ = passage_transform_batch(
                voting.evaluator, alpha, targets, [s], policy=routed
            )
            assert alone[0] == together[k]
        order = np.random.default_rng(5).permutation(grid.size)
        shuffled, _ = passage_transform_batch(
            voting.evaluator, alpha, targets, grid[order], solver="direct"
        )
        assert np.array_equal(shuffled, together[order])

    @pytest.mark.parametrize(
        "structure, ask",
        [
            pytest.param(
                DirectOrdering, lambda evaluator, mask: evaluator.direct_ordering(mask),
                id="direct-ordering",
            ),
            pytest.param(
                _RowStructure,
                lambda evaluator, mask: evaluator.factored().row_structure(mask),
                id="row-structure",
            ),
        ],
    )
    def test_concurrent_first_asks_share_one_build(self, voting, monkeypatch, structure, ask):
        """A server's request threads share one evaluator: threads (more than
        the cores) that first ask for a mask together get one structure — the
        direct ordering or the factored row structure — built once, and the
        evaluator's one per-mask cache keeps each kind's bound as they go on
        to more masks."""
        built: list[bytes] = []
        build = structure.__init__

        def slow_build(self, owner, absorbing):
            built.append(np.asarray(absorbing).tobytes())
            time.sleep(0.05)  # hold the build open while the others arrive
            build(self, owner, absorbing)

        monkeypatch.setattr(structure, "__init__", slow_build)
        evaluator = voting.kernel.evaluator()
        masks = [np.random.default_rng(seed).random(voting.n_states) < 0.2 for seed in range(6)]
        together = threading.Barrier(4)
        got: list = []

        def asks(first: int) -> None:
            together.wait(timeout=10)
            got.append(ask(evaluator, masks[0]))
            together.wait(timeout=10)
            for k in range(1, len(masks)):
                ask(evaluator, masks[1 + (first + k) % (len(masks) - 1)])

        threads = [threading.Thread(target=asks, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4 and all(held is got[0] for held in got)
        assert built.count(masks[0].tobytes()) == 1
        # a direct ordering reads its mask's component analysis, a second kind
        assert all(len(held) == evaluator._PER_MASK for held in evaluator._per_mask.values())
