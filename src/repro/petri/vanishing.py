"""Elimination of vanishing markings (zero-delay states).

The paper notes that SPNs and GSPNs translate into the SM-SPN paradigm in a
straightforward manner.  A GSPN's *immediate* transitions become SM-SPN
transitions with an :class:`~repro.distributions.Immediate` (zero) firing
time; the markings in which such a transition fires are *vanishing* — the
process spends no time in them — and keeping them in the semi-Markov kernel
both wastes states and breaks measures that count "time spent in ...".

:func:`eliminate_vanishing` removes those markings from a state space
by folding their branching probabilities into their predecessors: an edge
``u --(p, H)--> v`` into a vanishing marking ``v`` with outgoing branches
``v --(q_j, 0)--> w_j`` is replaced by edges ``u --(p q_j, H)--> w_j``.  The
sojourn distribution of the replacement edge is the original (timed) one, so
passage times through chains of immediate firings are preserved exactly.
Cycles of vanishing markings (a zero-time loop) are rejected.
"""
from __future__ import annotations

import numpy as np

from ..distributions import Distribution
from ..utils.arrays import ragged_take
from .statespace import StateSpace

__all__ = ["eliminate_vanishing", "is_vanishing_distribution"]


def is_vanishing_distribution(dist: Distribution) -> bool:
    """True when the sojourn carries no time at all (an immediate firing)."""
    try:
        return dist.mean() == 0.0 and dist.variance() == 0.0
    except NotImplementedError:
        return False


def eliminate_vanishing(space: StateSpace, *, max_chain: int = 500) -> StateSpace:
    """Return an equivalent state space without vanishing markings.

    A marking is vanishing when all of its outgoing edges are immediate
    firings.  The test costs one pass over the *unique* distribution table
    plus two ``bincount`` calls; edge redistribution is a vectorized
    gather/``repeat`` expansion followed by a grouped ``(src, dst,
    transition)`` reduction.  Only the per-vanishing-state resolution (the
    transitive closure of immediate branches) stays in Python — it touches
    vanishing states only, never the tangible bulk.

    Parameters
    ----------
    space:
        The state space to reduce.  It is not modified, and is returned as is
        when it has no vanishing marking.
    max_chain:
        Safety bound on the length of immediate-firing chains followed while
        redistributing probabilities; exceeding it indicates a zero-time
        cycle, which is reported as an error (such a model has no valid
        semi-Markov interpretation).
    """
    dist_vanishes = np.asarray(
        [is_vanishing_distribution(d) for d in space.distributions], dtype=bool
    )
    edge_vanishes = dist_vanishes[space.edge_dist]
    out_degree = np.bincount(space.edge_src, minlength=space.n_states)
    vanishing_out = np.bincount(
        space.edge_src[edge_vanishes], minlength=space.n_states
    )
    vanishing = (out_degree > 0) & (out_degree == vanishing_out)
    if not vanishing.any():
        return space
    if vanishing[space.initial_state]:
        raise ValueError(
            "the initial marking is vanishing (only immediate transitions are "
            "enabled there); give the model a timed initial activity first"
        )

    # Branch lists of vanishing states, in edge order.
    from_vanishing = vanishing[space.edge_src]
    branch_src = space.edge_src[from_vanishing]
    branch_dst = space.edge_dst[from_vanishing]
    branch_prob = space.edge_prob[from_vanishing]
    by_src = np.argsort(branch_src, kind="stable")
    branch_src, branch_dst, branch_prob = (
        branch_src[by_src], branch_dst[by_src], branch_prob[by_src],
    )
    starts = np.searchsorted(branch_src, np.flatnonzero(vanishing))
    ends = np.searchsorted(branch_src, np.flatnonzero(vanishing), side="right")
    branches = {
        int(state): (branch_dst[lo:hi], branch_prob[lo:hi])
        for state, lo, hi in zip(np.flatnonzero(vanishing), starts, ends)
    }

    resolved: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def resolve(state: int, depth: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Tangible ``(destinations, probabilities)`` reachable from ``state``."""
        if depth > max_chain:
            raise ValueError(
                "cycle of vanishing markings detected (a loop of immediate "
                "transitions with no time advance)"
            )
        hit = resolved.get(state)
        if hit is not None:
            return hit
        dsts, probs = branches[state]
        out_d, out_p = [], []
        for destination, probability in zip(dsts, probs):
            destination = int(destination)
            if vanishing[destination]:
                sub_d, sub_p = resolve(destination, depth + 1)
                out_d.append(sub_d)
                out_p.append(sub_p * probability)
            else:
                out_d.append(np.asarray([destination], dtype=np.int64))
                out_p.append(np.asarray([probability]))
        result = (
            np.concatenate(out_d) if out_d else np.empty(0, dtype=np.int64),
            np.concatenate(out_p) if out_p else np.empty(0),
        )
        resolved[state] = result
        return result

    # Flattened resolution table indexed through per-state offsets.
    vanishing_states = np.flatnonzero(vanishing)
    position_of = np.full(space.n_states, -1, dtype=np.int64)
    position_of[vanishing_states] = np.arange(vanishing_states.size)
    tables = [resolve(int(v)) for v in vanishing_states]
    table_len = np.asarray([t[0].size for t in tables], dtype=np.int64)
    table_off = np.concatenate(([0], np.cumsum(table_len)))[:-1]
    table_dst = (
        np.concatenate([t[0] for t in tables]) if tables else np.empty(0, dtype=np.int64)
    )
    table_prob = np.concatenate([t[1] for t in tables]) if tables else np.empty(0)

    # Keep tangible-source edges; expand those pointing at vanishing markings.
    keep = ~from_vanishing
    k_src, k_dst = space.edge_src[keep], space.edge_dst[keep]
    k_prob = space.edge_prob[keep]
    k_dist = space.edge_dist[keep].astype(np.int64)
    k_trans = space.edge_trans[keep].astype(np.int64)
    into_vanishing = vanishing[k_dst]

    direct = ~into_vanishing
    parts_src = [k_src[direct]]
    parts_dst = [k_dst[direct]]
    parts_prob = [k_prob[direct]]
    parts_dist = [k_dist[direct]]
    parts_trans = [k_trans[direct]]
    if into_vanishing.any():
        e_src, e_dst = k_src[into_vanishing], k_dst[into_vanishing]
        e_prob = k_prob[into_vanishing]
        e_dist, e_trans = k_dist[into_vanishing], k_trans[into_vanishing]
        counts = table_len[position_of[e_dst]]
        starts = table_off[position_of[e_dst]]
        parts_src.append(np.repeat(e_src, counts))
        parts_dst.append(ragged_take(table_dst, starts, counts))
        parts_prob.append(np.repeat(e_prob, counts) * ragged_take(table_prob, starts, counts))
        parts_dist.append(np.repeat(e_dist, counts))
        parts_trans.append(np.repeat(e_trans, counts))
    new_src = np.concatenate(parts_src)
    new_dst = np.concatenate(parts_dst)
    new_prob = np.concatenate(parts_prob)
    new_dist = np.concatenate(parts_dist)
    new_trans = np.concatenate(parts_trans)

    # Renumber over tangible states only.
    new_id = np.cumsum(~vanishing) - 1
    new_src = new_id[new_src]
    new_dst = new_id[new_dst]

    # Merge edges that folded onto the same (src, dst, transition) key.
    order = np.lexsort((new_trans, new_dst, new_src))
    new_src, new_dst, new_prob, new_dist, new_trans = (
        new_src[order], new_dst[order], new_prob[order], new_dist[order],
        new_trans[order],
    )
    is_start = np.empty(new_src.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = (
        (new_src[1:] != new_src[:-1])
        | (new_dst[1:] != new_dst[:-1])
        | (new_trans[1:] != new_trans[:-1])
    )
    group_starts = np.flatnonzero(is_start)
    conflict = (~is_start[1:]) & (new_dist[1:] != new_dist[:-1])
    if conflict.any():
        e = int(np.flatnonzero(conflict)[0]) + 1
        key = (
            int(new_src[e]),
            int(new_dst[e]),
            space.transition_names[int(new_trans[e])],
        )
        raise ValueError(
            f"conflicting sojourn distributions while merging edges into {key}"
        )
    merged_prob = np.add.reduceat(new_prob, group_starts)
    merged_src = new_src[group_starts]
    merged_dst = new_dst[group_starts]
    merged_dist = new_dist[group_starts]
    merged_trans = new_trans[group_starts]

    # Compact the distribution table to the entries that survived.
    used, compact_index = np.unique(merged_dist, return_inverse=True)
    distributions = [space.distributions[int(i)] for i in used]

    deadlocks = space.deadlock_states
    return StateSpace(
        net=space.net,
        marking_matrix=space.marking_matrix[~vanishing],
        edge_src=merged_src,
        edge_dst=merged_dst,
        edge_prob=merged_prob,
        edge_dist=compact_index.astype(np.int32),
        edge_trans=merged_trans.astype(np.int32),
        distributions=distributions,
        transition_names=list(space.transition_names),
        initial_state=int(new_id[space.initial_state]),
        deadlock_states=new_id[deadlocks] if deadlocks.size else deadlocks,
        truncated=space.truncated,
    )
