"""Golden identity of the explorer's output, and edge cases of its interning.

The equivalence suite compares the explorer with the per-marking reference,
which may number the distribution table differently; a faster explorer that
reordered the table would move every ``kernel_content_digest`` (so every
job, checkpoint and plane key) without failing it.  The golden values below
pin the table order, the state numbering and every edge column to the bytes
they had when recorded.  The kernel digest also hashes ``DIGEST_EPOCH``: its
golden values were re-recorded when the epoch moved to 7, every other field
unchanged.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential
from repro.dnamaca import load_model
from repro.models import VotingParameters, voting_spec_text
from repro.petri import SMSPN, Transition, build_kernel, explore
from repro.petri import statespace
from repro.petri.reachability import explore_reference
from repro.smp.kernel import kernel_content_digest
from tests.petri.test_statespace import assert_same_space

COLUMNS = ("marking_matrix", "edge_src", "edge_dst", "edge_prob", "edge_dist", "edge_trans")


def _sha256(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(
        f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
    ).hexdigest()


def fingerprint(space) -> dict:
    return {
        "digest": kernel_content_digest(build_kernel(space)),
        "states": space.n_states,
        "edges": space.n_edges,
        **{column: _sha256(getattr(space, column)) for column in COLUMNS},
    }


def counter_net(steps=(1, 256), limit: int = 600) -> SMSPN:
    """``a`` climbs by each of ``steps`` while below ``limit``; ``step0``'s
    sojourn depends on ``a``.  A wave meets several unseen counts at once,
    and past 255 their byte order differs from their numeric order (256
    sorts before 1), so the distribution table's order is visible."""
    net = SMSPN("counter")
    net.add_place("a", 0)
    for i, step in enumerate(steps):
        net.add_transition(Transition(
            name=f"step{i}", guard=f"a < {limit}", action={"a": f"a + {step}"},
            weight=float(i + 1),
            distribution=(lambda m: Exponential(1.0 + m["a"])) if i == 0 else Erlang(2.0, 2),
            distribution_depends=("a",) if i == 0 else None,
        ))
    return net


NETS = {
    "voting-spec50154": lambda: load_model(
        voting_spec_text(VotingParameters(50, 15, 4)), name="voting"
    ),
    "voting-spec1863": lambda: load_model(
        voting_spec_text(VotingParameters(18, 6, 3)), name="voting"
    ),
    "counter": counter_net,
}

GOLDEN = {
    "counter": {
        "digest": "b67a2b510ee2fb12426042adb1193a7cd46ba79ca509149cf8c2566d4f190c16",
        "states": 856,
        "edges": 1200,
        "marking_matrix": "0f31cd7377546b88725016b03a490a99e9eb86af82981dc7435e1a8d0ec24fc6",
        "edge_src": "9d50182edfe348a02ee216521902463942878c1b4ee02ecdc08cd912683da980",
        "edge_dst": "51cdc20055a0f57ec1c061c0f823a805b6143bc53f46b9365bff86dc34c082a1",
        "edge_prob": "f255f53443b763a00ab9377c0a1cfd61beb8d66c801aba2aa06ebc7333abc60a",
        "edge_dist": "9fa83f590714d9c9504773a8fdec31ab87bef03b670180ad553d26f50bf6a20c",
        "edge_trans": "a589308c29c199d5d480749b065be75085759191e640d0e630f9b5914ab0de0c",
    },
    "voting-spec1863": {
        "digest": "049f504e33634ea633b6ec9495907d1e80fc7c16fc46a8c2b65fc7e57f56705a",
        "states": 1876,
        "edges": 7959,
        "marking_matrix": "7d6e974867e550e6e0d05180b14c96be22f85fc96007d987c963618740d2ab84",
        "edge_src": "d189963489789018ea96773494b4205f388345c965d609a5e02c2779f86d36d8",
        "edge_dst": "005733c1bc9a25177025999abf946f5fec3435db317aef5ecdc24499bd4db4bc",
        "edge_prob": "bbfba46392b5c78d09571aa6a0ab61a9bc77c16e20a36713e6201b81f3b3c4b3",
        "edge_dist": "b8fb21f81b79b2a289a31711e31123a5fa83d9d2de421155eae6c0b3a75cdb7f",
        "edge_trans": "009f61ed4be6634c3b9920720e37a9a317c9a997a72362284820f46f22140dfb",
    },
    "voting-spec50154": {
        "digest": "5b3da8a01fbbb37a5a7993fdc3970fb167bf7900e6a973dc69346879f1bbab7e",
        "states": 31210,
        "edges": 159220,
        "marking_matrix": "da48a740ec6a0bdf8956e41dbb6c9c8d90657fe32c42531f4affd77e6dcf3abd",
        "edge_src": "ef717632d2065f179697d7d8b39bcc1d3aef714f775e540e2ffc0ee4e90407a4",
        "edge_dst": "2c55e9279b2f202786a4c00b6997cf5dd6af14ddac12751aba54bdf3b470831e",
        "edge_prob": "cfb4fd28caf99528b175c84bc7cbe7a025a09939133cbfd07d5b2aacc72719f3",
        "edge_dist": "691ccb597c9c8e8fd02e12d3c44a18c5fa8155360bc0019c0d28454aea2a2f85",
        "edge_trans": "c8a758285d5d2761385262980d43fa864ab371e76de8bb15e4a30d74ed4fb2c1",
    },
}


@pytest.mark.parametrize("label", sorted(NETS))
def test_explorer_output_is_byte_identical_to_the_recorded_one(label):
    assert fingerprint(explore(NETS[label]())) == GOLDEN[label]


# ---------------------------------------------------------------------------
# Edge cases of the hash-table interning, each against the reference
# ---------------------------------------------------------------------------


def grid_net(limit: int) -> SMSPN:
    """``a`` and ``b`` climb to ``limit``; ``jump`` adds 2 to ``a``, so a
    marking first met in one wave is met again in the next, and ``down``
    leads back to markings already known."""
    net = SMSPN(f"grid[{limit}]")
    net.add_place("a", 0)
    net.add_place("b", 0)
    for name, guard, action in (
        ("up_a", f"a < {limit}", {"a": "a + 1"}),
        ("up_b", f"b < {limit}", {"b": "b + 1"}),
        ("jump", f"a < {limit - 1}", {"a": "a + 2"}),
        ("down", "a > 0 && b > 0", {"a": "a - 1", "b": "b - 1"}),
    ):
        net.add_transition(Transition(
            name=name, guard=guard, action=action, distribution=Exponential(1.0)
        ))
    return net


def test_table_growth_and_repacks_in_one_explore(monkeypatch):
    """Counts outgrow their lanes (repacks) while the table doubles from its
    minimum size at least three times."""
    interner = statespace._MarkingInterner
    sizes, rebuilds = [], []
    rehash, rebuild = interner._rehash, interner.rebuild

    def spy_rehash(self, *args):
        rehash(self, *args)
        sizes.append(self.table.size)

    def spy_rebuild(self, *args):
        rebuilds.append(self.limits)
        rebuild(self, *args)

    monkeypatch.setattr(interner, "_rehash", spy_rehash)
    monkeypatch.setattr(interner, "rebuild", spy_rebuild)
    net = grid_net(60)
    space = explore(net)
    assert space.n_states == 61 * 61
    assert max(sizes) >= 8 * statespace._MIN_TABLE
    assert len(rebuilds) >= 3   # the initial packing and at least two repacks
    assert_same_space(explore_reference(net), space)


def test_every_cap_matches_the_reference():
    """Each cap cuts some wave among its fresh keys; a marking dropped there
    and met again in a later wave stays dropped."""
    net = grid_net(8)
    full = explore(net).n_states
    for cap in range(1, full + 1):
        reference = explore_reference(net, max_states=cap)
        space = explore(net, max_states=cap)
        assert space.truncated == (cap < full)
        assert_same_space(reference, space)


def _dependent_net(places: int, initial: int) -> SMSPN:
    """``p0`` counts down from ``initial`` and ``go``'s sojourn depends on
    all ``places`` places; ``x`` flips independently, so each dependent row
    fires from two markings met in different waves."""
    net = SMSPN(f"dependent[{places}]")
    names = [f"p{i}" for i in range(places)]
    for i, name in enumerate(names):
        net.add_place(name, initial if i == 0 else i)
    net.add_place("x", 0)
    for name, guard, step in (("flip", "x < 1", "x + 1"), ("flop", "x > 0", "x - 1")):
        net.add_transition(Transition(
            name=name, guard=guard, action={"x": step}, distribution=Exponential(3.0)
        ))
    net.add_transition(Transition(
        name="go", guard=f"p0 > {initial - 40}", action={"p0": "p0 - 1"},
        distribution=lambda m: Erlang(1.0 + m["p0"] % 7, 1 + sum(m[n] for n in names) % 3),
        distribution_depends=names,
    ))
    net.add_transition(Transition(
        name="back", guard=f"p0 < {initial}", action={"p0": "p0 + 1"},
        distribution=Exponential(2.0),
    ))
    return net


@pytest.mark.parametrize(
    "places,initial,by_code",
    [(1, 40, True), (4, 60, True), (5, 60, False), (1, 2**15 + 40, False)],
    ids=["one-place", "four-places", "five-places", "past-15-bits"],
)
def test_dependent_distribution_paths(monkeypatch, places, initial, by_code):
    """Rows over at most four places with counts below 2**15 are looked up
    by code, so only unseen rows take the per-row path; wider rows or larger
    counts take it for every firing."""
    per_row = []
    by_row = statespace._VectorTransition._dist_by_row

    def spy(self, M_rows, *args):
        per_row.append(len(M_rows))
        return by_row(self, M_rows, *args)

    monkeypatch.setattr(statespace._VectorTransition, "_dist_by_row", spy)
    net = _dependent_net(places, initial)
    space = explore(net)
    go = space.transition_names.index("go")
    fired = int((space.edge_trans == go).sum())
    distinct = np.unique(space.marking_matrix[space.edge_src[space.edge_trans == go], 0]).size
    assert fired == 2 * distinct
    assert sum(per_row) == (distinct if by_code else fired)
    assert_same_space(explore_reference(net), space)
