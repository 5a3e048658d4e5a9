"""The reference explorer: the SM-SPN semantics one marking at a time.

Every reachable marking is a tangible semi-Markov state: the probability of
moving to the next marking is the normalised weight of the chosen transition
and the sojourn is its firing distribution.  The breadth-first walk below
asks :meth:`SMSPN.firing_choices` for exactly that, marking by marking, and
is what the array explorer (:func:`repro.petri.explore`) is tested against —
same discovery order, deadlocks, truncation and edges.  It is the oracle of
the equivalence suite and ``scripts/bench_statespace.py``, not a shipped
path: nothing else in ``src/`` imports it.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..distributions import Distribution
from .net import SMSPN
from .statespace import StateSpace

__all__ = ["explore_reference"]


def explore_reference(net: SMSPN, *, max_states: int | None = None) -> StateSpace:
    """Breadth-first exploration of the reachable markings of ``net``.

    ``max_states`` is the safety cap of :func:`repro.petri.explore`: edges to
    markings beyond it are dropped and the result is marked ``truncated``.
    """
    initial = net.initial_marking
    index: dict[tuple[int, ...], int] = {initial: 0}
    markings: list[tuple[int, ...]] = [initial]
    transition_index = {t.name: i for i, t in enumerate(net.transitions)}
    dist_table: list[Distribution] = []
    dist_ids: dict[Distribution, int] = {}
    src, dst, prob, dist_of, trans = [], [], [], [], []
    deadlocks: list[int] = []
    queue: deque[int] = deque([0])
    truncated = False

    while queue:
        state = queue.popleft()
        choices = net.firing_choices(markings[state])
        if not choices:
            deadlocks.append(state)
            continue
        for transition, probability, next_marking, dist in choices:
            nxt = index.get(next_marking)
            if nxt is None:
                if max_states is not None and len(markings) >= max_states:
                    truncated = True
                    continue
                nxt = len(markings)
                index[next_marking] = nxt
                markings.append(next_marking)
                queue.append(nxt)
            src.append(state)
            dst.append(nxt)
            prob.append(probability)
            dist_id = dist_ids.get(dist)
            if dist_id is None:
                dist_id = dist_ids[dist] = len(dist_table)
                dist_table.append(dist)
            dist_of.append(dist_id)
            trans.append(transition_index[transition.name])

    return StateSpace(
        net=net,
        marking_matrix=np.asarray(markings, dtype=np.int64),
        edge_src=np.asarray(src, dtype=np.int64),
        edge_dst=np.asarray(dst, dtype=np.int64),
        edge_prob=np.asarray(prob, dtype=float),
        edge_dist=np.asarray(dist_of, dtype=np.int32),
        edge_trans=np.asarray(trans, dtype=np.int32),
        distributions=dist_table,
        transition_names=[t.name for t in net.transitions],
        deadlock_states=np.asarray(deadlocks, dtype=np.int64),
        truncated=truncated,
    )
