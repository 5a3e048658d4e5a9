"""Array-backed state-space core: vectorized exploration of an SM-SPN.

Evaluating guards, weights and firings one Python call per marking is, at the
paper's headline scale (10^5–10^7 tangible states), the wall in front of
every vectorized layer downstream.  :func:`explore` is a breadth-first
exploration that expands the whole frontier as batched NumPy operations, into
the one representation of an explored net, :class:`StateSpace`:

* markings live in one ``(n_states, n_places)`` int64 matrix (chunked,
  doubling growth — memory stays proportional to states, not Python objects),
* markings are interned as packed int64 keys in one open-addressing hash
  table, probed for a whole wave of successors at once; a folded firing's key
  is its source's key plus the transition's key delta, so successors are
  packed only where an action did not fold (a ``bytes -> id`` dictionary
  once a marking outgrows 63 bits),
* edges are structure-of-arrays — ``src``/``dst`` int64, ``prob`` float64,
  ``dist`` int32 into a table of *unique* distributions deduplicated at
  exploration time, ``trans`` int32 into the net's transition names,
* the net is compiled once per explore: a declaratively specified attribute
  (an expression string, see :class:`repro.petri.net.Transition`) that names
  no place is a constant, evaluated once — place-free weights and
  priorities, ``p ± c`` actions (``c`` a constant integer) and guards that
  are conjunctions of ``place <,<=,>,>= constant`` fold into constant
  vectors, a firing delta and per-place integer bounds that the wave loop
  applies with single broadcasts,
* enabledness, priority selection, weight normalisation and firing are
  evaluated for a *whole frontier wave* at once — attributes that do not
  fold compile to one NumPy evaluation per transition and wave via
  :class:`repro.dnamaca.vectorize.VectorizedExpression`; opaque Python
  callables fall back to per-row evaluation of just that attribute, so any
  net explores correctly and nets with declarative attributes explore fast,
* a marking-dependent firing distribution with declared dependent places is
  built once per distinct token row of those places for the whole explore
  (rows over at most four places are looked up by one packed code each).

The discovery order (and therefore state numbering), deadlock list,
``max_states`` truncation semantics and edge columns are *identical* to the
per-marking reference (:func:`repro.petri.reachability.explore_reference`;
probabilities to the last few ulps) — asserted model-by-model in the
equivalence suite — because candidate edges are interned in ``(source state,
transition index)`` stream order, exactly the order the per-marking BFS
visits them.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..distributions import Distribution, Exponential
from ..dnamaca.vectorize import VectorizedExpression
from ..smp.kernel import SMPKernel
from .net import SMSPN, MarkingView, Transition

__all__ = ["StateSpace", "build_kernel", "explore", "explore_vectorized"]


# ---------------------------------------------------------------------------
# Compiled per-transition vector semantics
# ---------------------------------------------------------------------------


def _row_view(net: SMSPN, row: np.ndarray) -> MarkingView:
    return net.view(tuple(int(x) for x in row))


def _broadcast(value, k: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (k,))
    return arr


# Guard folding: ``place <op> c`` on integer token counts is an integer bound
# (``p > c`` ⇔ ``p >= floor(c) + 1``); ``c <op> place`` mirrors the operator.
_NO_UPPER = np.iinfo(np.int64).max
_EXACT_INT = 2.0 ** 53  # beyond this a float constant no longer names one integer
_INTEGER_BOUND = {
    ast.Gt: lambda c: math.floor(c) + 1,
    ast.GtE: math.ceil,
    ast.Lt: lambda c: math.ceil(c) - 1,
    ast.LtE: math.floor,
}
_MIRRORED = {ast.Gt: ast.Lt, ast.GtE: ast.LtE, ast.Lt: ast.Gt, ast.LtE: ast.GtE}
# A marking-dependent distribution over at most this many dependent places,
# each below 2**_DIST_CODE_BITS tokens, is looked up by one int64 code per row.
_DIST_CODE_PLACES = 4
_DIST_CODE_BITS = 15


class _VectorTransition:
    """One net transition compiled for frontier-batch evaluation.

    Compiled once per explore: an expression attribute that names no place
    is a constant, evaluated here over the transition's constants, so a
    place-free weight or priority, a ``p ± c`` action and a guard made of
    ``place <op> constant`` comparisons cost nothing per wave.  Whatever does
    not fold stays on the per-wave expression path below.
    """

    def __init__(self, transition: Transition, net: SMSPN, index: int):
        self.transition = transition
        self.net = net
        self.name = transition.name
        self.index = index
        place_index = dict(net.place_index)
        self._place_index = place_index
        self._place_items = list(place_index.items())
        self.constants = dict(getattr(transition, "_bound_constants", {}) or {})
        n_places = len(net.places)

        # Enabling bounds: input arcs are lower bounds, and a foldable guard
        # tightens them and adds upper bounds.
        self.lower = np.zeros(n_places, dtype=np.int64)
        for place, count in transition.inputs.items():
            self.lower[place_index[place]] = int(count)
        self.upper = np.full(n_places, _NO_UPPER, dtype=np.int64)

        # Dispatch per attribute: a constant, else a vectorized expression
        # when declared, otherwise each method's final branch evaluates the
        # transition's scalar callable per row.
        self.has_guard = transition._guard_fn is not None
        self._guard_vec = None
        if transition.guard_source is not None:
            guard = VectorizedExpression(transition.guard_source)
            lower, upper = self.lower.copy(), self.upper.copy()
            if self._fold_guard(guard.tree, lower, upper):
                self.lower, self.upper = lower, upper
                self.has_guard = False
            else:
                self._guard_vec = guard
        self.bound_cols = np.flatnonzero((self.lower > 0) | (self.upper < _NO_UPPER))

        self._priority_vec, self._priority_const = self._declared(transition.priority_source)
        if self._priority_const is not None:
            self._priority_const = float(np.rint(self._priority_const))
        elif transition.priority_source is None and not callable(transition.priority):
            self._priority_const = float(int(transition.priority))

        self._weight_vec, self._weight_const = self._declared(transition.weight_source)
        if transition.weight_source is None and not callable(transition.weight):
            self._weight_const = float(transition.weight)

        self._fire_delta = self._fire_vec = None
        if transition._action_fn is None:
            delta = np.zeros(n_places, dtype=np.int64)
            for place, count in transition.inputs.items():
                delta[place_index[place]] -= int(count)
            for place, count in transition.outputs.items():
                delta[place_index[place]] += int(count)
            self._fire_delta = delta
        elif transition.action_source is not None:
            for place in transition.action_source:
                if place not in place_index:
                    raise KeyError(
                        f"action of {transition.name!r} writes unknown place {place!r}"
                    )
            actions = [
                (place, VectorizedExpression(expr))
                for place, expr in transition.action_source.items()
            ]
            self._fire_delta = self._action_delta(actions)
            if self._fire_delta is None:
                self._fire_vec = [(place_index[place], expr) for place, expr in actions]

        self._dist_const: Distribution | None = None
        self._dist_cols: np.ndarray | None = None
        # Distribution-table id per token row of the declared dependent
        # places, kept for the whole explore: each distinct row is built once.
        # (A whole-marking key never repeats — each state expands once.)
        self._dist_memo: dict[bytes, int] | None = None
        # The same ids by packed code of a row over at most _DIST_CODE_PLACES
        # dependent places with counts below 2**_DIST_CODE_BITS: sorted codes
        # and their ids, so a wave's rows seen before resolve without a sort.
        self._dist_codes: np.ndarray | None = None
        self._dist_code_ids = np.empty(0, dtype=np.int64)
        if isinstance(transition.distribution, Distribution):
            self._dist_const = transition.distribution
        else:
            depends = transition.distribution_depends
            if depends is not None:
                self._dist_memo = {}
                for place in depends:
                    if place not in place_index:
                        raise KeyError(
                            f"distribution_depends of {transition.name!r} names "
                            f"unknown place {place!r}"
                        )
                cols = sorted(place_index[p] for p in depends)
                if len(cols) <= _DIST_CODE_PLACES:
                    self._dist_codes = np.empty(0, dtype=np.int64)
                    self._dist_code_shifts = _DIST_CODE_BITS * np.arange(len(cols))
            else:
                cols = list(range(n_places))
            self._dist_cols = np.asarray(cols, dtype=np.int64)

    # ------------------------------------------------------------ folding
    def _constant(self, expr: VectorizedExpression | ast.AST) -> float | None:
        """The value of a place-free expression, evaluated once.

        ``None`` when the expression names a place (place columns shadow
        same-named constants), faults, or is not a finite real: the caller
        then keeps the attribute on the per-wave path, which raises where
        the reference raises.
        """
        if not isinstance(expr, VectorizedExpression):
            expr = VectorizedExpression(ast.unparse(expr))
        if expr.names() & self._place_index.keys():
            return None
        try:
            value = float(expr.evaluate_checked(self.constants))
        except (ArithmeticError, TypeError, ValueError):
            return None
        return value if math.isfinite(value) else None

    def _declared(self, source: str | None):
        """``(per-wave expression, None)`` or ``(None, constant)`` for an
        expression attribute; ``(None, None)`` when there is none."""
        if source is None:
            return None, None
        expr = VectorizedExpression(source)
        value = self._constant(expr)
        return (expr, None) if value is None else (None, value)

    def _action_delta(self, actions) -> np.ndarray | None:
        """The firing delta of an action whose every right-hand side is
        ``p + c`` / ``p - c`` on its own place with ``c`` a constant integer."""
        delta = np.zeros(len(self._place_index), dtype=np.int64)
        for place, expr in actions:
            node = expr.tree
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.left, ast.Name)
                and node.left.id == place
            ):
                return None
            step = self._constant(node.right)
            if step is None or not step.is_integer() or abs(step) >= _EXACT_INT:
                return None
            sign = 1 if isinstance(node.op, ast.Add) else -1
            delta[self._place_index[place]] = sign * int(step)
        return delta

    def _fold_guard(self, node: ast.AST, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Fold a conjunction of ``place <op> constant`` comparisons (either
        side, ``<`` ``<=`` ``>`` ``>=``) and constants into integer per-place
        bounds; ``False`` when any part does not fold."""
        value = self._constant(node)
        if value is not None:
            if not value:
                if lower.size == 0:
                    return False  # no place to carry the empty interval
                lower[0], upper[0] = 1, 0
            return True
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            return all(self._fold_guard(value, lower, upper) for value in node.values)
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if not self._fold_comparison(left, type(op), right, lower, upper):
                    return False
                left = right
            return True
        return False

    def _fold_comparison(self, left, op, right, lower, upper) -> bool:
        if isinstance(left, ast.Name) and left.id in self._place_index:
            place, other = left.id, right
        elif isinstance(right, ast.Name) and right.id in self._place_index:
            place, other, op = right.id, left, _MIRRORED.get(op)
        else:
            return False
        if op not in _INTEGER_BOUND:
            return False
        value = self._constant(other)
        if value is None or abs(value) >= _EXACT_INT:
            return False
        column = self._place_index[place]
        bound = _INTEGER_BOUND[op](value)
        if op in (ast.Gt, ast.GtE):
            lower[column] = max(lower[column], bound)
        else:
            upper[column] = min(upper[column], bound)
        return True

    # ------------------------------------------------------------ helpers
    def _column_env(self, M: np.ndarray) -> dict:
        env: dict[str, object] = dict(self.constants)
        for name, column in self._place_items:
            env[name] = M[:, column]
        return env

    # ---------------------------------------------------------- semantics
    def guard_mask(
        self, M: np.ndarray, mask: np.ndarray, view_of: Callable[[int], MarkingView]
    ) -> np.ndarray:
        """``mask`` restricted to rows whose guard holds.

        Python-callable guards are only invoked on rows already passing the
        arc check (the reference's short-circuit order).  A vectorized guard that
        hits an arithmetic fault (division by a zero token count, ...) falls
        back to per-row scalar evaluation, which lazily skips untaken
        branches and raises exactly where the reference explorer raises.
        """
        if self._guard_vec is not None:
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                return mask
            try:
                # Evaluate over the arc-enabled rows only — the same domain
                # the scalar path sees, so faults in irrelevant rows neither
                # raise nor demote the wave to the per-row fallback.
                sub = M if rows.size == len(M) else M[rows]
                guard = _broadcast(
                    self._guard_vec.evaluate_checked(self._column_env(sub)), rows.size
                )
                out = np.zeros(len(M), dtype=bool)
                out[rows] = guard.astype(bool)
                return out
            except FloatingPointError:
                pass
        guard_fn = self.transition._guard_fn
        out = mask.copy()
        for r in np.flatnonzero(mask):
            if not guard_fn(view_of(int(r))):
                out[r] = False
        return out

    def priorities(
        self, M: np.ndarray, mask: np.ndarray, view_of: Callable[[int], MarkingView]
    ) -> np.ndarray:
        k = len(M)
        if self._priority_const is not None:
            return np.full(k, self._priority_const)
        if self._priority_vec is not None:
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                return np.zeros(k)
            try:
                sub = M if rows.size == k else M[rows]
                values = _broadcast(
                    self._priority_vec.evaluate_checked(self._column_env(sub)), rows.size
                )
                out = np.zeros(k)
                out[rows] = np.rint(np.asarray(values, dtype=float))
                return out
            except FloatingPointError:
                pass  # fall back to exact scalar semantics below
        out = np.zeros(k)
        for r in np.flatnonzero(mask):
            out[r] = self.transition.priority_in(view_of(int(r)))
        return out

    def weights(
        self, M: np.ndarray, mask: np.ndarray, view_of: Callable[[int], MarkingView]
    ) -> np.ndarray:
        k = len(M)
        if self._weight_const is not None:
            if self._weight_const < 0:
                raise ValueError(f"transition {self.name!r} produced a negative weight")
            return np.full(k, self._weight_const)
        if self._weight_vec is not None:
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                return np.zeros(k)
            try:
                sub = M if rows.size == k else M[rows]
                values = np.asarray(
                    _broadcast(
                        self._weight_vec.evaluate_checked(self._column_env(sub)),
                        rows.size,
                    ),
                    dtype=float,
                )
                if np.any(values < 0):
                    raise ValueError(
                        f"transition {self.name!r} produced a negative weight"
                    )
                out = np.zeros(k)
                out[rows] = values
                return out
            except FloatingPointError:
                pass  # fall back to exact scalar semantics below
        out = np.zeros(k)
        for r in np.flatnonzero(mask):
            out[r] = self.transition.weight_in(view_of(int(r)))
        return out

    def fire(
        self, M_rows: np.ndarray, view_of_row: Callable[[np.ndarray], MarkingView]
    ) -> np.ndarray:
        """Successor rows of an action that did not fold into a firing delta.

        Unchecked: :func:`explore` checks a whole wave for negative markings
        at once, so the error names the first offending pair in stream order.
        """
        if self._fire_vec is not None:
            try:
                env = self._column_env(M_rows)
                out = M_rows.copy()
                for column, expr in self._fire_vec:
                    values = np.asarray(expr.evaluate_checked(env), dtype=float)
                    out[:, column] = np.rint(values).astype(np.int64)
                return out
            except FloatingPointError:
                pass  # fall back to exact scalar semantics below
        place_index = dict(self.net.place_index)
        out = np.empty_like(M_rows)
        for i, row in enumerate(M_rows):
            out[i] = self.transition.next_tokens(view_of_row(row), place_index)
        return out

    def dist_ids(
        self,
        M_rows: np.ndarray,
        intern: Callable[[Distribution], int],
        view_of_row: Callable[[np.ndarray], MarkingView],
    ) -> np.ndarray:
        if self._dist_const is not None:
            return np.full(len(M_rows), intern(self._dist_const), dtype=np.int64)
        sub = M_rows[:, self._dist_cols]
        if self._dist_codes is None or sub.max() >= 1 << _DIST_CODE_BITS:
            return self._dist_by_row(M_rows, sub, intern, view_of_row)
        codes = (sub << self._dist_code_shifts).sum(axis=1)
        known = self._dist_codes
        ids = np.full(codes.size, -1, dtype=np.int64)
        if known.size:
            pos = np.minimum(np.searchsorted(known, codes), known.size - 1)
            hit = known[pos] == codes
            ids[hit] = self._dist_code_ids[pos[hit]]
        unseen = np.flatnonzero(ids < 0)
        if unseen.size:
            # Rows not seen before take the per-row path in its own order, so
            # the distribution table fills exactly as without the codes.
            ids[unseen] = self._dist_by_row(M_rows[unseen], sub[unseen], intern, view_of_row)
            new, first = np.unique(codes[unseen], return_index=True)
            merged = np.concatenate((known, new))
            order = np.argsort(merged, kind="stable")
            self._dist_codes = merged[order]
            self._dist_code_ids = np.concatenate(
                (self._dist_code_ids, ids[unseen[first]])
            )[order]
        return ids

    def _dist_by_row(self, M_rows, sub, intern, view_of_row) -> np.ndarray:
        """Distribution-table ids of rows grouped by their dependent-place
        bytes: each group not in the memo is built and interned in the
        groups' sorted byte order."""
        sub = np.ascontiguousarray(sub)
        void = sub.view(np.dtype((np.void, sub.dtype.itemsize * sub.shape[1]))).ravel()
        keys, first, inverse = np.unique(void, return_index=True, return_inverse=True)
        memo = self._dist_memo if self._dist_memo is not None else {}
        ids = np.empty(first.size, dtype=np.int64)
        for u, row in enumerate(first):
            key = keys[u].tobytes()
            found = memo.get(key)
            if found is None:
                dist = self.transition.distribution_in(view_of_row(M_rows[row]))
                found = memo[key] = intern(dist)
            ids[u] = found
        return ids[inverse]


# ---------------------------------------------------------------------------
# The explored state space (structure-of-arrays)
# ---------------------------------------------------------------------------


class _MarkingNames:
    """Deferred marking-string state names.

    A module-level class (not a closure) so kernels stay picklable — the
    multiprocessing and distributed engines ship whole kernels to worker
    processes under spawn start methods.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __call__(self) -> list[str]:
        return [str(tuple(int(x) for x in row)) for row in self.matrix]


@dataclass(eq=False)
class StateSpace:
    """The explored state space of an SM-SPN in columnar form.

    State ``i``'s marking is row ``i`` of :attr:`marking_matrix`, edge ``e``
    is ``(edge_src[e], edge_dst[e])`` taken with probability ``edge_prob[e]``
    after the sojourn ``distributions[edge_dist[e]]`` via net transition
    ``transition_names[edge_trans[e]]`` — all held in flat arrays, so kernels,
    predicates and partitioners consume it without materialising per-edge
    Python objects.
    """

    net: SMSPN
    marking_matrix: np.ndarray            # (n_states, n_places) int64
    edge_src: np.ndarray                  # (n_edges,) int64
    edge_dst: np.ndarray                  # (n_edges,) int64
    edge_prob: np.ndarray                 # (n_edges,) float64
    edge_dist: np.ndarray                 # (n_edges,) int32 -> distributions
    edge_trans: np.ndarray                # (n_edges,) int32 -> transition_names
    distributions: list[Distribution]
    transition_names: list[str]
    initial_state: int = 0
    deadlock_states: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    truncated: bool = False
    _index: dict | None = field(default=None, repr=False, compare=False)

    # -------------------------------------------------------------- stats
    @property
    def n_states(self) -> int:
        return int(self.marking_matrix.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_src.size)

    @property
    def markings(self) -> np.ndarray:
        """Row-indexable markings (the matrix itself; rows act like tuples)."""
        return self.marking_matrix

    @property
    def deadlocks(self) -> np.ndarray:
        return self.deadlock_states

    @property
    def edges(self) -> list[tuple[int, int, float, Distribution, str]]:
        """Per-edge ``(src, dst, probability, distribution, transition name)``
        tuples (materialised on demand; a debugging aid — hot paths use the
        columns directly)."""
        return [
            (
                int(self.edge_src[e]),
                int(self.edge_dst[e]),
                float(self.edge_prob[e]),
                self.distributions[int(self.edge_dist[e])],
                self.transition_names[int(self.edge_trans[e])],
            )
            for e in range(self.n_edges)
        ]

    # ------------------------------------------------------------- lookups
    def index_of(self, marking: Sequence[int]) -> int:
        """O(1) interned lookup of a marking's state index."""
        key = np.asarray(tuple(int(t) for t in marking), dtype=np.int64).tobytes()
        if self._index is None:
            self._index = {
                row.tobytes(): i for i, row in enumerate(self.marking_matrix)
            }
        try:
            return self._index[key]
        except KeyError:
            marking = tuple(int(t) for t in marking)
            raise KeyError(f"marking {marking} is not reachable") from None

    def view(self, state: int) -> MarkingView:
        return self.net.view(self.marking_matrix[state])

    def states_where(self, predicate: Callable[[MarkingView], bool]) -> list[int]:
        """All state indices whose marking satisfies a per-marking callable.

        Compatibility path for opaque Python predicates; prefer
        :meth:`states_matching` (one vectorized pass) for expression strings.
        """
        view = self.net.view
        return [
            i for i, row in enumerate(self.marking_matrix)
            if predicate(view(tuple(int(x) for x in row)))
        ]

    def states_matching(
        self, expression: str, constants: Mapping[str, float] | None = None
    ) -> np.ndarray:
        """State indices satisfying a condition expression, in one NumPy pass."""
        from ..dnamaca.vectorize import vector_marking_predicate

        predicate = vector_marking_predicate(expression, constants)
        mask = predicate(self.marking_matrix, self.net.place_index)
        return np.flatnonzero(mask).astype(np.int64)

    def marking_array(self) -> np.ndarray:
        """All markings as an ``(n_states, n_places)`` int64 array.

        This *is* the backing store (no copy) — treat it as read-only.
        """
        return self.marking_matrix

    def transition_usage(self) -> dict[str, int]:
        """How many state-space edges each net transition contributes."""
        counts = np.bincount(self.edge_trans, minlength=len(self.transition_names))
        return {
            name: int(count)
            for name, count in zip(self.transition_names, counts)
            if count
        }

    # ------------------------------------------------------------ handoff
    def kernel(self, *, allow_truncated: bool = False) -> SMPKernel:
        """Zero-copy handoff of the edge columns to an :class:`SMPKernel`.

        Deadlocked markings get a unit-mean exponential self-loop so that the
        kernel remains stochastic (genuine SM-SPN models of *concurrent
        systems*, like the voting model, have none); parallel edges between
        the same pair of states are merged, and a truncated frontier
        normalised, inside :meth:`SMPKernel.from_columns`.
        """
        if self.truncated and not allow_truncated:
            raise ValueError(
                "the reachability graph was truncated at max_states; pass "
                "allow_truncated=True only if edges leaving the truncation frontier "
                "are acceptable to drop"
            )
        src, dst = self.edge_src, self.edge_dst
        probs, dist_index = self.edge_prob, self.edge_dist
        distributions = self.distributions
        if self.deadlock_states.size:
            distributions = list(distributions)
            loop_dist = Exponential(1.0)
            try:
                loop_id = distributions.index(loop_dist)
            except ValueError:
                loop_id = len(distributions)
                distributions.append(loop_dist)
            dead = self.deadlock_states
            src = np.concatenate([src, dead])
            dst = np.concatenate([dst, dead])
            probs = np.concatenate([probs, np.ones(dead.size)])
            dist_index = np.concatenate(
                [dist_index, np.full(dead.size, loop_id, dtype=np.int64)]
            )
        return SMPKernel.from_columns(
            self.n_states, src, dst, probs, dist_index, distributions,
            # Marking-string names, deferred: a million-state kernel only
            # pays for them on access.
            state_names=_MarkingNames(self.marking_matrix),
            normalise=self.truncated,
        )


def build_kernel(space: StateSpace, *, allow_truncated: bool = False) -> SMPKernel:
    """Convert an explored state space into an :class:`SMPKernel`."""
    return space.kernel(allow_truncated=allow_truncated)


# ---------------------------------------------------------------------------
# Vectorized breadth-first exploration
# ---------------------------------------------------------------------------


class _EdgeChunks:
    """Append-only columnar edge store, concatenated once at the end."""

    def __init__(self):
        self.src: list[np.ndarray] = []
        self.dst: list[np.ndarray] = []
        self.prob: list[np.ndarray] = []
        self.dist: list[np.ndarray] = []
        self.trans: list[np.ndarray] = []

    def append(self, src, dst, prob, dist, trans) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.prob.append(prob)
        self.dist.append(dist)
        self.trans.append(trans)

    def concatenate(self):
        if not self.src:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty.copy(),
                np.empty(0, dtype=float),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
            )
        return (
            np.concatenate(self.src),
            np.concatenate(self.dst),
            np.concatenate(self.prob),
            np.concatenate(self.dist),
            np.concatenate(self.trans),
        )


#: Multiplicative (Fibonacci) hashing: a key's table slot is the top bits of
#: ``key * 2**64 / phi`` (mod 2**64).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_MIN_TABLE = 1024
_PROBE_WINDOW = np.arange(16)


class _MarkingInterner:
    """Marking -> state-id interning, a whole wave of candidates at once.

    When every place's token count fits into a fixed bit budget summing to at
    most 63 bits, a marking packs losslessly into one int64 key.  Packing is
    linear while every field stays in its lane, so a folded firing's key is
    its source's key plus the transition's :attr:`key_delta`: the wave never
    packs those successors.  :attr:`keys` holds every state's key by state
    id, and one open-addressing table (:attr:`table`: a power of two of int32
    slots holding a state id or -1, load at most 1/2 with a wave's claims
    counted, multiplicative hash, linear probing) resolves a wave's keys in
    vectorized probe rounds — no sort, no per-marking Python.  Nets whose
    markings outgrow the budget fall back to a ``bytes -> id`` dictionary
    (still O(1) per lookup) over marking rows.
    """

    def __init__(self, deltas: np.ndarray):
        self.n_places = deltas.shape[1]
        self.deltas = deltas
        self.shifts: np.ndarray | None = None
        self.limits: np.ndarray | None = None
        self.key_delta: np.ndarray | None = None   # per transition
        self.keys = np.empty(_MIN_TABLE // 2, dtype=np.int64)
        self.table = np.empty(0, dtype=np.int32)
        self._hash_shift = np.uint64(0)
        self.byte_index: dict[bytes, int] | None = None

    def _choose_packing(self, per_place_max: np.ndarray) -> bool:
        """Pick per-place bit widths (with headroom); False if > 63 bits."""
        needed = np.asarray(
            [max(1, int(v).bit_length()) for v in per_place_max], dtype=np.int64
        )
        with_headroom = needed + 1
        if int(with_headroom.sum()) <= 63:
            bits = with_headroom
        elif int(needed.sum()) <= 63:
            bits = needed
        else:
            return False
        self.shifts = np.concatenate(([0], np.cumsum(bits[:-1]))).astype(np.int64)
        self.limits = (np.int64(1) << bits).astype(np.int64)
        return True

    def pack(self, rows: np.ndarray) -> np.ndarray:
        # Accumulate column by column instead of materialising the shifted
        # (rows, places) temporary — this runs on every candidate batch.
        keys = rows[:, 0] << self.shifts[0]
        for column in range(1, self.n_places):
            keys = keys | (rows[:, column] << self.shifts[column])
        return keys

    def fits(self, per_place_max: np.ndarray) -> bool:
        return self.limits is not None and bool((per_place_max < self.limits).all())

    def rebuild(self, markings: np.ndarray, per_place_max: np.ndarray) -> None:
        """(Re)pack all known markings after choosing a packing — or switch
        to the byte-dict fallback when the markings no longer fit in 63 bits."""
        if self.byte_index is not None:
            return
        n = len(markings)
        if not self._choose_packing(per_place_max):
            self.shifts = self.limits = self.key_delta = None
            self.keys = self.table = None
            self.byte_index = {
                row.tobytes(): i for i, row in enumerate(markings)
            }
            return
        # Wrapping int64 arithmetic is exact modulo 2**64, and an in-lane
        # successor's key lies in [0, 2**63): the sum is exact wherever used.
        self.key_delta = (self.deltas << self.shifts).sum(axis=1)
        if self.keys.size < n:
            self.keys = np.empty(2 * n, dtype=np.int64)
        self.keys[:n] = self.pack(markings)
        self._rehash(n, n, max(self.table.size, _MIN_TABLE))

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        return ((keys.view(np.uint64) * _HASH_MULTIPLIER) >> self._hash_shift).astype(np.intp)

    def _rehash(self, n: int, room: int, size: int) -> None:
        """A fresh table of at least ``size`` slots, and at least twice
        ``room``, holding states ``0 .. n-1``."""
        while 2 * room > size:
            size *= 2
        self.table = table = np.full(size, -1, dtype=np.int32)
        self._hash_shift = np.uint64(65 - size.bit_length())
        mask = size - 1
        ids = np.arange(n, dtype=np.int32)
        slot = self._slots(self.keys[:n])
        while ids.size:
            free = table[slot] < 0
            table[slot[free]] = ids[free]
            lost = table[slot] != ids
            ids, slot = ids[lost], (slot[lost] + 1) & mask

    def intern(
        self, candidates: np.ndarray, n_states: int, budget: int
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Resolve a wave's packed candidate keys (in stream order).

        Returns the state id per candidate (-1 where dropped), the candidate
        indices whose keys became states ``n_states, n_states + 1, ...`` — the
        first occurrence of each fresh key in stream order, at most
        ``budget`` of them — and whether a fresh key was dropped.
        """
        m = candidates.size
        need = n_states + m
        if self.keys.size < need:
            grown = np.empty(max(need, 2 * self.keys.size), dtype=np.int64)
            grown[:n_states] = self.keys[:n_states]
            self.keys = grown
        if 2 * need > self.table.size:
            self._rehash(n_states, need, self.table.size)
        keys, table = self.keys, self.table
        mask = table.size - 1
        # Candidate i parks its key at tentative id top - i of the key column,
        # so one gather compares a slot against stored and claimed keys alike,
        # and np.maximum.at hands an empty slot to its first claimant in
        # stream order.  Duplicates share a probe sequence, so each fresh key's
        # first occurrence claims one slot and its repeats meet it there.
        top = need - 1
        claim = budget > 0
        if claim:
            keys[n_states:need] = candidates[::-1]
        # The first probe resolves most candidates; the tail of the probe
        # chains then scans a window of slots per round.  Each candidate stops
        # at its key or at the first empty slot, which it claims; without
        # room (no claims) an unseen key resolves at that empty slot: dropped.
        at = self._slots(candidates)   # the slot each candidate resolves at
        held = table[at]
        if claim:
            empty = np.flatnonzero(held < 0)
            # int32 codes: ufunc.at takes its fast path only without a cast
            np.maximum.at(table, at[empty], (top - empty).astype(np.int32))
            held[empty] = table[at[empty]]
        done = keys[held] == candidates
        done |= held < 0
        pending = np.flatnonzero(~done)
        slot = at[pending] + 1
        while pending.size:
            window = slot[:, None] + _PROBE_WINDOW
            window &= mask
            held = table[window]
            stop = keys[held] == candidates[pending, None]
            stop |= held < 0
            # The window's last slot counts as a stop: a chain that runs past
            # it is examined there below, like any stop.
            stop[:, -1] = True
            here = slot + stop.argmax(axis=1)
            here &= mask
            value = table[here]
            if claim:
                empty = np.flatnonzero(value < 0)
                if empty.size:
                    np.maximum.at(table, here[empty], (top - pending[empty]).astype(np.int32))
                    value[empty] = table[here[empty]]
            done = keys[value] == candidates[pending]
            done |= value < 0
            at[pending[done]] = here[done]
            left = ~done
            pending, slot = pending[left], here[left] + 1
        found = table[at]   # a state id, or the claim code of a fresh key
        if not claim:
            return found.astype(np.int64), at[:0], bool((found < 0).any())
        owners = np.flatnonzero(found == top - np.arange(m))
        fresh = owners[:budget]
        ids = np.arange(n_states, n_states + fresh.size)
        keys[n_states:n_states + fresh.size] = candidates[fresh]
        dropped = fresh.size < owners.size
        if dropped:  # the dropped keys' claims would break probe chains
            state = np.full(m, -1, dtype=np.int64)
            state[fresh] = ids
            found = found.astype(np.int64)
            tentative = found >= n_states
            found[tentative] = state[top - found[tentative]]
            self._rehash(n_states + fresh.size, need, table.size)
        else:
            table[at[fresh]] = ids
            found = table[at].astype(np.int64)
        return found, fresh, dropped

    def intern_rows(
        self, rows: np.ndarray, n_states: int, budget: int
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """:meth:`intern` for the byte-keyed fallback, over successor rows."""
        void = rows.view(np.dtype((np.void, rows.dtype.itemsize * self.n_places))).ravel()
        _, first, inverse = np.unique(void, return_index=True, return_inverse=True)
        get = self.byte_index.get
        state = np.asarray([get(rows[i].tobytes(), -1) for i in first], dtype=np.int64)
        unseen = np.flatnonzero(state < 0)
        stream = unseen[np.argsort(first[unseen], kind="stable")]
        chosen = stream[:budget]
        state[chosen] = n_states + np.arange(chosen.size)
        fresh = first[chosen]
        for i, sid in zip(fresh, state[chosen]):
            self.byte_index[rows[i].tobytes()] = int(sid)
        return state[inverse], fresh, chosen.size < stream.size


def explore(
    net: SMSPN,
    *,
    max_states: int | None = None,
    on_progress: Callable[[int], None] | None = None,
    progress_every: int = 50_000,
    batch_size: int = 32_768,
) -> StateSpace:
    """Breadth-first exploration, one frontier wave at a time in NumPy.

    State numbering, deadlocks, edge columns and ``max_states`` truncation
    semantics match the per-marking reference
    (:func:`repro.petri.reachability.explore_reference`).  A wave of ``k``
    frontier states is one gather: enabling is one ``(transitions, k)`` bool
    matrix checked places-outermost, ``np.nonzero`` of the positive-weight
    active ``(k, transitions)`` matrix lists every ``(state, transition)``
    pair already in the reference's stream order, and the pairs fire at once:
    a folded firing's successor key is ``key[src] + key_delta[trans]``, and
    only an action that did not fold builds (and packs) its successor rows.
    One hash-table probe of the wave's keys dedups and interns them; marking
    rows are built for the fresh states only.

    Parameters
    ----------
    max_states:
        Optional safety cap: edges to markings that would exceed the cap are
        dropped and the result is marked ``truncated`` (a truncated space is
        refused by :func:`build_kernel` unless ``allow_truncated``).
    on_progress:
        Optional callback invoked with the state count at every multiple of
        ``progress_every`` up to the final count, once each, as soon as the
        count reaches it — useful for the large voting configurations.
    batch_size:
        Upper bound on frontier states expanded per batch; bounds the
        transient ``(batch, n_transitions)`` work matrices.
    """
    n_places = len(net.places)
    if max_states is not None and max_states < 1:
        raise ValueError("max_states must allow at least the initial marking")
    compiled = [_VectorTransition(t, net, i) for i, t in enumerate(net.transitions)]
    n_trans = len(compiled)

    # Wave-overhead fast paths.  Every net is compiled once above, so input
    # arcs and folded guards check as one broadcast comparison against
    # per-place lower / upper bounds, all-constant priorities / weights
    # (declared numbers or place-free expressions, as DNAmaca specs write
    # them) fill their work matrices with a single np.where, and folded
    # actions fire as one gather of their deltas.  Only what did not fold is
    # evaluated per wave.
    lower = np.zeros((n_places, n_trans, 1), dtype=np.int64)
    upper = np.full((n_places, n_trans, 1), _NO_UPPER, dtype=np.int64)
    deltas = np.zeros((n_trans, n_places), dtype=np.int64)
    for t in compiled:
        lower[:, t.index, 0], upper[:, t.index, 0] = t.lower, t.upper
        if t._fire_delta is not None:
            deltas[t.index] = t._fire_delta
    has_upper = bool((upper < _NO_UPPER).any())
    # Successor rows are built only where a wave needs them whole.  A folded
    # firing stays in its lanes below ``M.max + rise``, and goes negative
    # only if its delta can take a place below the transition's enabling
    # lower bound (an ``unsafe`` transition, whose rows are checked).
    unfolded = np.asarray([t._fire_delta is None for t in compiled], dtype=bool)
    rise = np.maximum(deltas, 0)
    unsafe = ((lower[:, :, 0].T + deltas) < 0).any(axis=1) & ~unfolded
    guarded = [t for t in compiled if t.has_guard]
    const_priority = None
    if all(t._priority_const is not None for t in compiled):
        const_priority = np.asarray([t._priority_const for t in compiled])
    const_weight = negative = None
    if all(t._weight_const is not None for t in compiled):
        const_weight = np.asarray([t._weight_const for t in compiled])
        negative = np.flatnonzero(const_weight < 0)

    capacity = 1024
    markings = np.empty((capacity, n_places), dtype=np.int64)
    initial = np.asarray(net.initial_marking, dtype=np.int64)
    markings[0] = initial
    n_states = 1
    if on_progress is not None and progress_every == 1:
        on_progress(1)
    interner = _MarkingInterner(deltas)
    interner.rebuild(markings[:1], np.maximum(initial, 0))

    edges = _EdgeChunks()
    dist_table: list[Distribution] = []
    dist_ids: dict[Distribution, int] = {}

    def intern_dist(dist: Distribution) -> int:
        found = dist_ids.get(dist)
        if found is None:
            found = len(dist_table)
            dist_ids[dist] = found
            dist_table.append(dist)
        return found

    # A constant distribution's table id, set the first time its transition
    # fires; -1 before that and for marking-dependent distributions.
    const_dist = np.full(n_trans, -1, dtype=np.int64)

    def view_of_row(row: np.ndarray) -> MarkingView:
        return _row_view(net, row)

    deadlocks: list[int] = []
    truncated = False
    cursor = 0

    while cursor < n_states:
        hi = min(n_states, cursor + batch_size)
        M = markings[cursor:hi].copy()  # stable even if the store reallocates
        k = hi - cursor

        view_cache: dict[int, MarkingView] = {}

        def view_of(row: int) -> MarkingView:
            view = view_cache.get(row)
            if view is None:
                view = _row_view(net, M[row])
                view_cache[row] = view
            return view

        # Enabling and priority selection in (transitions, batch) layout:
        # every bound of every transition is one comparison with the places
        # outermost and the batch innermost, so the reductions run over whole
        # planes instead of a short trailing axis — as long as the (places,
        # transitions, batch) temporary stays small; wide nets fall back to
        # per-transition checks over their own bounded columns so the
        # per-wave footprint tracks actual arcs and guards.
        if k * n_trans * n_places <= 16_000_000:
            columns = np.ascontiguousarray(M.T)[:, None, :]
            enabled = (columns >= lower).all(axis=0)
            if has_upper:
                enabled &= (columns <= upper).all(axis=0)
        else:
            enabled = np.ones((n_trans, k), dtype=bool)
            for t in compiled:
                cols = t.bound_cols
                if cols.size:
                    sub = M[:, cols]
                    enabled[t.index] = (
                        (sub >= t.lower[cols]) & (sub <= t.upper[cols])
                    ).all(axis=1)
        for t in guarded:
            column = enabled[t.index]
            if column.any():
                enabled[t.index] = t.guard_mask(M, column, view_of)
        enabled_any = enabled.any(axis=0)
        if not enabled_any.all():
            deadlocks.extend((cursor + np.flatnonzero(~enabled_any)).tolist())
        if not enabled_any.any():
            cursor = hi
            continue

        # EP(m): among net-enabled transitions keep those of maximal priority.
        if const_priority is not None:
            priority = np.where(enabled, const_priority[:, None], -np.inf)
        else:
            priority = np.full((n_trans, k), -np.inf)
            for t in compiled:
                column = enabled[t.index]
                if column.any():
                    values = t.priorities(M, column, view_of)
                    priority[t.index, column] = values[column]
        top = priority.max(axis=0)
        # Back to (batch, transitions): each state's weights are summed along
        # a contiguous row, in the order (and so to the bits) they always were.
        active = np.ascontiguousarray((enabled & (priority == top)).T)

        if const_weight is not None:
            # A negative weight is an error only once its transition is
            # active, as in the per-marking semantics.
            if negative.size and active[:, negative].any():
                bad = compiled[int(negative[active[:, negative].any(axis=0)][0])]
                raise ValueError(f"transition {bad.name!r} produced a negative weight")
            weights = np.where(active, const_weight[None, :], 0.0)
        else:
            weights = np.zeros((k, n_trans))
            for t in compiled:
                column = active[:, t.index]
                if column.any():
                    values = t.weights(M, column, view_of)
                    weights[column, t.index] = values[column]
        totals = weights.sum(axis=1)
        bad = enabled_any & (totals <= 0.0)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            names = [compiled[j].name for j in np.flatnonzero(active[row])]
            raise ValueError(
                f"no positive firing weight in marking {tuple(int(x) for x in M[row])} "
                f"(enabled: {names})"
            )

        # Every firing pair of the wave, row-major: by source, then by
        # transition — the per-marking reference's stream order.
        src_local, trans = np.nonzero(active & (weights > 0.0))
        if src_local.size == 0:
            cursor = hi
            continue
        prob = weights[src_local, trans] / totals[src_local]
        dist = const_dist[trans]
        fired = np.zeros(n_trans, dtype=bool)
        fired[trans] = True
        # Whole successor rows only for a wave that fires an unfolded action
        # or interns by bytes: ``M[src] + delta``, each unfolded action then
        # overwriting its own rows.
        fires_unfolded = bool(fired[unfolded].any())
        nxt = None
        if interner.byte_index is not None or fires_unfolded:
            nxt = M[src_local] + deltas[trans]
        # What did not fold, in transition index order: the distribution
        # table fills in (wave, transition) order as it always has, and its
        # reprs enter the model digest.
        for t in compiled:
            if not fired[t.index] or (t._fire_delta is not None and const_dist[t.index] >= 0):
                continue
            rows = np.flatnonzero(trans == t.index)
            M_rows = M[src_local[rows]]
            if t._fire_delta is None:
                nxt[rows] = t.fire(M_rows, view_of_row)
            if t._dist_const is None:
                dist[rows] = t.dist_ids(M_rows, intern_dist, view_of_row)
            elif const_dist[t.index] < 0:
                dist[rows] = const_dist[t.index] = intern_dist(t._dist_const)
        checked, successors = None, nxt
        if nxt is None and fired[unsafe].any():
            checked = np.flatnonzero(unsafe[trans])
            successors = M[src_local[checked]] + deltas[trans[checked]]
        if successors is not None and successors.min() < 0:
            bad = int(np.flatnonzero((successors < 0).any(axis=1))[0])
            pair = bad if checked is None else int(checked[bad])
            raise ValueError(
                f"firing {compiled[trans[pair]].name!r} produced a negative marking "
                f"{tuple(int(x) for x in successors[bad])}"
            )

        # Intern destinations: fresh markings receive ids in stream order —
        # the reference's discovery order.  A repack (a place outgrew its
        # lane) is decided on the exact successor maximum, computed only
        # when the lane bound ``M.max + rise`` fails.
        budget = src_local.size if max_states is None else max(0, max_states - n_states)
        if interner.byte_index is None:
            if nxt is None and not interner.fits(M.max(axis=0) + rise[fired].max(axis=0)):
                nxt = M[src_local] + deltas[trans]
            if nxt is not None:
                cand_max = nxt.max(axis=0)
                if not interner.fits(cand_max):
                    interner.rebuild(
                        markings[:n_states],
                        np.maximum(markings[:n_states].max(axis=0), cand_max),
                    )
        if interner.byte_index is None:
            candidates = interner.keys[cursor + src_local] + interner.key_delta[trans]
            if fires_unfolded:
                own_rows = np.flatnonzero(unfolded[trans])
                candidates[own_rows] = interner.pack(nxt[own_rows])
            dst, fresh, dropped = interner.intern(candidates, n_states, budget)
        else:
            dst, fresh, dropped = interner.intern_rows(nxt, n_states, budget)
        truncated |= dropped
        if fresh.size:
            needed = n_states + fresh.size
            if needed > capacity:
                while capacity < needed:
                    capacity *= 2
                grown = np.empty((capacity, n_places), dtype=np.int64)
                grown[:n_states] = markings[:n_states]
                markings = grown
            if nxt is None:
                markings[n_states:needed] = M[src_local[fresh]] + deltas[trans[fresh]]
            else:
                markings[n_states:needed] = nxt[fresh]
            if on_progress is not None:
                start = (n_states // progress_every + 1) * progress_every
                for milestone in range(start, needed + 1, progress_every):
                    on_progress(milestone)
            n_states = needed

        keep = dst >= 0
        edges.append(
            (cursor + src_local)[keep],
            dst[keep],
            prob[keep],
            dist[keep].astype(np.int32),
            trans[keep].astype(np.int32),
        )
        cursor = hi

    edge_src, edge_dst, edge_prob, edge_dist, edge_trans = edges.concatenate()
    marking_matrix = markings[:n_states]
    if capacity != n_states:
        # An explicit copy: a prefix slice would keep the whole power-of-two
        # growth buffer alive (up to ~2x the needed marking memory) for the
        # StateSpace's lifetime.
        marking_matrix = marking_matrix.copy()
    return StateSpace(
        net=net,
        marking_matrix=marking_matrix,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_prob=edge_prob,
        edge_dist=edge_dist,
        edge_trans=edge_trans,
        distributions=dist_table,
        transition_names=[t.name for t in net.transitions],
        deadlock_states=np.asarray(deadlocks, dtype=np.int64),
        truncated=truncated,
        _index=interner.byte_index,
    )


# The spelling ``bench/`` imports; the same function object.
explore_vectorized = explore
