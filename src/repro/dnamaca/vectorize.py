"""Vectorized evaluation of marking expressions over NumPy column arrays.

The per-state predicate path (:func:`~repro.dnamaca.expressions.marking_predicate`)
builds a :class:`MarkingView` and walks the expression AST once *per state* —
fine for a thousand markings, a wall at a million.  This module compiles the
same whitelisted AST (:class:`~repro.dnamaca.expressions.SafeExpression`) into
a single NumPy evaluation over the columns of a marking matrix, so
``states_where`` / ``resolve_state_sets`` and the vectorized state-space
explorer answer in one pass.

Semantics match the scalar interpreter with three documented exceptions, all
irrelevant for token-count predicates:

* ``and`` / ``or`` / ``if-else`` evaluate *all* operands (no short-circuit);
  arithmetic faults in branches that scalar evaluation would have skipped are
  suppressed via ``np.errstate`` and produce values that the untaken branch
  discards.  (:meth:`VectorizedExpression.evaluate_checked` raises on such
  faults instead, letting the explorer fall back to exact scalar semantics.)
* Integer division by zero yields 0 (NumPy) under :meth:`evaluate` instead
  of raising (``evaluate_checked`` raises).
* Integer arithmetic is int64: expressions whose intermediates exceed
  2^63 - 1 (e.g. ``p1 ** 10`` with hundreds of tokens) wrap around, where
  the scalar interpreter computes exact Python integers.
"""
from __future__ import annotations

import ast
from functools import reduce
from typing import Mapping

import numpy as np

# The operator tables are shared with the scalar interpreter so the
# whitelist and this evaluator cannot drift apart.
from .expressions import _BIN_OPS, _CMP_OPS, ExpressionError, SafeExpression

__all__ = ["VectorizedExpression", "vector_marking_predicate"]


def _as_bool(value):
    return np.asarray(value, dtype=bool)


def _trunc_int(value):
    """Vectorized counterpart of Python's ``int()``: truncate toward zero."""
    arr = np.asarray(value)
    if arr.dtype.kind in "iub":
        return arr
    return np.trunc(arr).astype(np.int64)


def _elementwise_min(*args):
    if len(args) < 2:
        raise ExpressionError("min/max need at least two arguments")
    return reduce(np.minimum, args)


def _elementwise_max(*args):
    if len(args) < 2:
        raise ExpressionError("min/max need at least two arguments")
    return reduce(np.maximum, args)


_VECTOR_FUNCTIONS = {
    "min": _elementwise_min,
    "max": _elementwise_max,
    "abs": np.abs,
    "int": _trunc_int,
    "floor": _trunc_int,
}


class VectorizedExpression:
    """A :class:`SafeExpression` evaluated over columns in one NumPy pass.

    ``evaluate`` takes an environment mapping names to scalars *or* aligned
    1-D arrays and returns the broadcast result (a scalar when every
    referenced name is scalar).
    """

    def __init__(self, expression: SafeExpression | str):
        self._expr = (
            expression if isinstance(expression, SafeExpression) else SafeExpression(expression)
        )

    @property
    def source(self) -> str:
        return self._expr.source

    @property
    def tree(self) -> ast.AST:
        return self._expr.tree

    def names(self) -> set[str]:
        return self._expr.names()

    def evaluate(self, env: Mapping[str, object]):
        with np.errstate(all="ignore"):
            return self._eval(self._expr.tree, env)

    def evaluate_checked(self, env: Mapping[str, object]):
        """Like :meth:`evaluate`, but arithmetic faults raise.

        Raises :class:`FloatingPointError` on division by zero or invalid
        operations instead of silently producing inf/NaN.  Callers that need
        exact scalar semantics (lazy branch evaluation) catch it and fall
        back to the per-state interpreter.
        """
        with np.errstate(divide="raise", invalid="raise"):
            return self._eval(self._expr.tree, env)

    __call__ = evaluate

    def _eval(self, node: ast.AST, env: Mapping[str, object]):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in _VECTOR_FUNCTIONS:
                return _VECTOR_FUNCTIONS[node.id]
            try:
                return env[node.id]
            except KeyError:
                raise ExpressionError(
                    f"unknown name {node.id!r} in expression {self.source!r}"
                ) from None
        if isinstance(node, ast.BinOp):
            return _BIN_OPS[type(node.op)](
                self._eval(node.left, env), self._eval(node.right, env)
            )
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return np.logical_not(_as_bool(self._eval(node.operand, env)))
            value = self._eval(node.operand, env)
            return -value if isinstance(node.op, ast.USub) else +value
        if isinstance(node, ast.BoolOp):
            values = [_as_bool(self._eval(v, env)) for v in node.values]
            combine = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
            return reduce(combine, values)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            result = None
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, env)
                term = _as_bool(_CMP_OPS[type(op)](left, right))
                result = term if result is None else np.logical_and(result, term)
                left = right
            return result
        if isinstance(node, ast.Call):
            func = _VECTOR_FUNCTIONS[node.func.id]  # validated by SafeExpression
            return func(*[self._eval(a, env) for a in node.args])
        if isinstance(node, ast.IfExp):
            test = _as_bool(self._eval(node.test, env))
            return np.where(test, self._eval(node.body, env), self._eval(node.orelse, env))
        raise ExpressionError(f"unexpected node {type(node).__name__}")  # pragma: no cover


def vector_marking_predicate(
    expression: str | SafeExpression, constants: Mapping[str, float] | None = None
):
    """Compile a condition-style expression into a *columnar* marking predicate.

    The returned callable takes an ``(n_states, n_places)`` marking matrix and
    a ``{place: column}`` index and returns a boolean mask over states — the
    one-pass counterpart of
    :func:`repro.dnamaca.expressions.marking_predicate`.  Place columns shadow
    constants of the same name, exactly like the scalar path.
    """
    compiled = VectorizedExpression(expression)
    bound = dict(constants or {})

    def predicate(markings: np.ndarray, place_index: Mapping[str, int]) -> np.ndarray:
        markings = np.asarray(markings)
        env: dict[str, object] = dict(bound)
        for name, column in place_index.items():
            env[name] = markings[:, column]
        try:
            result = np.asarray(compiled.evaluate_checked(env))
        except FloatingPointError:
            # Arithmetic fault somewhere in the matrix: re-evaluate per state
            # with the scalar interpreter, which lazily skips untaken
            # branches and raises (ZeroDivisionError, ...) exactly where the
            # per-state path always did — never a silently wrong state set.
            scalar = compiled._expr
            items = list(place_index.items())
            out = np.empty(markings.shape[0], dtype=bool)
            for i in range(markings.shape[0]):
                row_env: dict[str, object] = dict(bound)
                for name, column in items:
                    row_env[name] = int(markings[i, column])
                out[i] = bool(scalar.evaluate(row_env))
            return out
        if result.ndim == 0:
            result = np.broadcast_to(result, (markings.shape[0],))
        return result.astype(bool)

    return predicate
