"""Compilation of a parsed :class:`ModelSpec` into an executable SM-SPN."""
from __future__ import annotations

from ..petri.net import SMSPN, MarkingView, Transition
from .ast import ModelSpec, TransitionSpec
from .expressions import ExpressionError, SafeExpression, parse_lt_expression
from .parser import parse_model

__all__ = ["compile_model", "load_model"]


def _environment(view: MarkingView, constants: dict[str, float]) -> dict[str, float]:
    env = dict(constants)
    env.update(view.as_dict())
    return env


def _check_names(expr: SafeExpression, known: set[str], context: str) -> None:
    unknown = expr.names() - known
    if unknown:
        raise ExpressionError(
            f"{context} references unknown name(s) {sorted(unknown)}; "
            "known names are the declared places and constants"
        )


def _compile_transition(
    spec: TransitionSpec, constants: dict[str, float], places: set[str]
) -> Transition:
    known = places | set(constants)

    guard_expr = SafeExpression(spec.condition) if spec.condition else None
    if guard_expr is not None:
        _check_names(guard_expr, known, f"\\condition of {spec.name!r}")
    weight_expr = SafeExpression(spec.weight)
    _check_names(weight_expr, known, f"\\weight of {spec.name!r}")
    priority_expr = SafeExpression(spec.priority)
    _check_names(priority_expr, known, f"\\priority of {spec.name!r}")
    action_exprs = [(place, SafeExpression(expr)) for place, expr in spec.action]
    for place, expr in action_exprs:
        if place not in places:
            raise ExpressionError(f"\\action of {spec.name!r} writes unknown place {place!r}")
        _check_names(expr, known, f"\\action of {spec.name!r}")
    lt_expr = parse_lt_expression(spec.sojourn_lt)

    # Guard / action / weight / priority go to the Transition as *expression
    # strings* (the declarative form): the per-marking explorer evaluates them
    # through the same SafeExpression machinery as before, and the vectorized
    # explorer compiles them to batched NumPy evaluations over marking-matrix
    # columns.
    marking_places = lt_expr.names() & places
    if marking_places:
        # Marking-dependent firing distribution: built per distinct
        # combination of the places it reads (declared via
        # ``distribution_depends``).
        def distribution(view: MarkingView):
            return lt_expr.build(_environment(view, constants))

        depends: tuple[str, ...] | None = tuple(sorted(marking_places))
    else:
        distribution = lt_expr.build(dict(constants))
        depends = None

    return Transition(
        name=spec.name,
        inputs={},  # enabling is fully captured by the guard
        outputs={},
        guard=spec.condition if spec.condition else "1",
        action={place: source for place, source in spec.action} or None,
        priority=spec.priority,
        weight=spec.weight,
        distribution=distribution,
        constants=constants,
        distribution_depends=depends,
    )


def compile_model(spec: ModelSpec) -> SMSPN:
    """Build an :class:`~repro.petri.SMSPN` from a parsed specification."""
    net = SMSPN(name=spec.name)
    place_names = set(spec.place_names())
    constants = dict(spec.constants)

    for place in spec.places:
        initial_expr = SafeExpression(place.initial_expression)
        unknown = initial_expr.names() - set(constants)
        if unknown:
            raise ExpressionError(
                f"initial marking of place {place.name!r} references unknown name(s) "
                f"{sorted(unknown)} (only constants may appear there)"
            )
        tokens = int(round(initial_expr.evaluate(constants)))
        net.add_place(place.name, tokens)

    for t_spec in spec.transitions:
        net.add_transition(_compile_transition(t_spec, constants, place_names))
    return net


def load_model(
    text: str | ModelSpec, *, name: str = "model", overrides: dict[str, float] | None = None
) -> SMSPN:
    """Parse and compile a specification in one step.

    ``overrides`` replaces constant values after parsing — convenient for
    sweeping model parameters (e.g. the voting system's ``CC``/``MM``/``NN``)
    from one specification template.  A caller that has already parsed the
    text (to read its declared constants, say) passes the :class:`ModelSpec`
    instead and skips the second parse; its constants are updated in place.
    """
    spec = text if isinstance(text, ModelSpec) else parse_model(text, name=name)
    if overrides:
        unknown = set(overrides) - set(spec.constants)
        if unknown:
            raise KeyError(f"overrides for undeclared constants: {sorted(unknown)}")
        spec.constants.update({k: float(v) for k, v in overrides.items()})
    return compile_model(spec)
