"""SM-SPN net structure: places, markings and marking-dependent transitions.

Formally (paper Section 5.1) an SM-SPN is a 4-tuple ``(PN, P, W, D)`` where
``PN`` is a place–transition net and ``P``, ``W``, ``D`` attach a
marking-dependent priority, weight and firing-time CDF to every transition.
Here all three are plain Python callables of the current marking (constants
are accepted and wrapped), the net-enabling function follows the usual token
rule, and an optional extra *guard* and *action* allow the DNAmaca-style
conditions (``p7 > MM-1``) and bulk token moves (``next->p3 = p3 + MM``) that
the paper's specification language expresses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..distributions import Distribution
from ..utils.validation import require

__all__ = ["MarkingView", "Transition", "SMSPN"]


class MarkingView(Mapping):
    """Read-only, name-indexed view of a marking tuple.

    Guard / weight / priority / distribution callables receive one of these,
    so model code can be written as ``m["p7"] >= m.net_constant`` style
    expressions without caring about place ordering.
    """

    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: tuple[int, ...], index: Mapping[str, int]):
        self._tokens = tokens
        self._index = index

    def __getitem__(self, place: str) -> int:
        return self._tokens[self._index[place]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    @property
    def tokens(self) -> tuple[int, ...]:
        return self._tokens

    def as_dict(self) -> dict[str, int]:
        return {name: self._tokens[i] for name, i in self._index.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"MarkingView({inner})"


def _as_callable(value, kind: str):
    """Wrap constants into callables; pass callables through."""
    if callable(value):
        return value
    if kind == "priority":
        fixed = int(value)
        return lambda m: fixed
    if kind == "weight":
        fixed = float(value)
        return lambda m: fixed
    if kind == "distribution":
        if not isinstance(value, Distribution):
            raise TypeError("distribution must be a Distribution or a callable returning one")
        return lambda m: value
    raise ValueError(f"unknown attribute kind {kind!r}")  # pragma: no cover


def _expression_callable(source: str, constants: Mapping[str, float], kind: str):
    """Compile an expression-string attribute into a per-marking callable.

    The same :class:`~repro.dnamaca.expressions.SafeExpression` drives both
    this scalar path and the vectorized explorer, so declaring an attribute
    as a string gives one semantics with two execution strategies.
    """
    from ..dnamaca.expressions import SafeExpression  # deferred: avoids an import cycle

    expr = SafeExpression(source)
    if kind == "guard":
        return lambda m: bool(expr.evaluate({**constants, **m.as_dict()}))
    if kind == "weight":
        return lambda m: float(expr.evaluate({**constants, **m.as_dict()}))
    if kind == "priority":
        return lambda m: int(round(expr.evaluate({**constants, **m.as_dict()})))
    raise ValueError(f"unknown attribute kind {kind!r}")  # pragma: no cover


@dataclass
class Transition:
    """One SM-SPN transition.

    Attributes
    ----------
    name:
        Identifier used in state-space statistics and error messages.
    inputs / outputs:
        Arc multiplicities by place name.  ``inputs`` both gate the enabling
        (every input place needs at least that many tokens) and are consumed
        on firing; ``outputs`` are produced on firing.
    guard:
        Optional extra marking predicate (DNAmaca ``\\condition``); a
        transition is *net-enabled* when its input arcs are satisfied and the
        guard holds.  May be a callable *or* a condition expression string
        (``"p7 > MM - 1"``) over places and :attr:`constants` — string
        attributes are the *declarative* form the vectorized explorer can
        compile to one batched NumPy evaluation per frontier.
    action:
        Optional marking transformer replacing the default arc semantics
        (DNAmaca ``\\action``); either a callable receiving a
        :class:`MarkingView` and returning the next marking as a mapping from
        place name to token count for the places it changes (unchanged places
        may be omitted), or the declarative form — a mapping from place name
        to an expression string (``{"p3": "p3 + MM"}``), all right-hand sides
        evaluated against the *pre-firing* marking.
    priority / weight / distribution:
        Marking-dependent attributes (constants allowed; priority and weight
        also accept expression strings).
    constants:
        Named values available inside expression-string attributes.
    distribution_depends:
        When ``distribution`` is a callable, the places its result actually
        depends on.  The vectorized explorer then evaluates it once per
        distinct combination of those token counts instead of once per state;
        ``None`` means "unknown" (assume it may depend on the whole marking).
    """

    name: str
    inputs: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    guard: Callable[[MarkingView], bool] | str | None = None
    action: Callable[[MarkingView], Mapping[str, int]] | Mapping[str, str] | None = None
    priority: Callable[[MarkingView], int] | int | str = 0
    weight: Callable[[MarkingView], float] | float | str = 1.0
    distribution: Callable[[MarkingView], Distribution] | Distribution | None = None
    constants: Mapping[str, float] | None = None
    distribution_depends: Sequence[str] | None = None

    def __post_init__(self):
        require(bool(self.name), "transitions need a non-empty name")
        if self.distribution is None:
            raise ValueError(f"transition {self.name!r} needs a firing-time distribution")
        if not self.inputs and self.guard is None:
            raise ValueError(
                f"transition {self.name!r} needs input arcs and/or a guard to define enabling"
            )
        bound = dict(self.constants or {})
        self._bound_constants = bound
        if self.distribution_depends is not None:
            self.distribution_depends = tuple(str(p) for p in self.distribution_depends)

        # Declarative (expression-string) attributes keep their source text so
        # the vectorized explorer can compile them; the scalar callables below
        # are the reference semantics used by explore(), firing_choices() and
        # the simulator.
        self.guard_source: str | None = None
        self.action_source: dict[str, str] | None = None
        self.weight_source: str | None = None
        self.priority_source: str | None = None

        if isinstance(self.guard, str):
            self.guard_source = self.guard
            self._guard_fn = _expression_callable(self.guard, bound, "guard")
        else:
            self._guard_fn = self.guard

        if isinstance(self.action, Mapping):
            from ..dnamaca.expressions import SafeExpression  # deferred import

            sources = {str(place): str(expr) for place, expr in self.action.items()}
            compiled = [(place, SafeExpression(expr)) for place, expr in sources.items()]
            self.action_source = sources

            def _action(m, _compiled=compiled, _bound=bound):
                env = {**_bound, **m.as_dict()}
                return {place: int(round(expr.evaluate(env))) for place, expr in _compiled}

            self._action_fn = _action
        else:
            self._action_fn = self.action

        if isinstance(self.priority, str):
            self.priority_source = self.priority
            self._priority_fn = _expression_callable(self.priority, bound, "priority")
        else:
            self._priority_fn = _as_callable(self.priority, "priority")
        if isinstance(self.weight, str):
            self.weight_source = self.weight
            self._weight_fn = _expression_callable(self.weight, bound, "weight")
        else:
            self._weight_fn = _as_callable(self.weight, "weight")
        self._distribution_fn = _as_callable(self.distribution, "distribution")

    # ----------------------------------------------------------- semantics
    def net_enabled(self, view: MarkingView) -> bool:
        """Token rule plus optional guard (the paper's ``EN`` membership)."""
        for place, count in self.inputs.items():
            if view[place] < count:
                return False
        if self._guard_fn is not None and not self._guard_fn(view):
            return False
        return True

    def priority_in(self, view: MarkingView) -> int:
        return int(self._priority_fn(view))

    def weight_in(self, view: MarkingView) -> float:
        w = float(self._weight_fn(view))
        if w < 0:
            raise ValueError(f"transition {self.name!r} produced a negative weight")
        return w

    def distribution_in(self, view: MarkingView) -> Distribution:
        dist = self._distribution_fn(view)
        if not isinstance(dist, Distribution):
            raise TypeError(
                f"transition {self.name!r}'s distribution callable returned {type(dist).__name__}"
            )
        return dist

    def fire(self, view: MarkingView, place_index: Mapping[str, int]) -> tuple[int, ...]:
        """The marking reached by firing this transition."""
        tokens = self.next_tokens(view, place_index)
        if any(t < 0 for t in tokens):
            raise ValueError(
                f"firing {self.name!r} produced a negative marking {tuple(tokens)}"
            )
        return tuple(tokens)

    def next_tokens(self, view: MarkingView, place_index: Mapping[str, int]) -> list[int]:
        """The token counts after firing, not yet checked for negativity."""
        tokens = list(view.tokens)
        if self._action_fn is not None:
            updates = self._action_fn(view)
            for place, value in updates.items():
                if place not in place_index:
                    raise KeyError(f"action of {self.name!r} writes unknown place {place!r}")
                tokens[place_index[place]] = int(value)
        else:
            for place, count in self.inputs.items():
                tokens[place_index[place]] -= count
            for place, count in self.outputs.items():
                tokens[place_index[place]] += count
        return tokens


class SMSPN:
    """A semi-Markov stochastic Petri net."""

    def __init__(self, name: str = "sm-spn"):
        self.name = name
        self.places: list[str] = []
        self._place_index: dict[str, int] = {}
        self.transitions: list[Transition] = []
        self._initial: dict[str, int] = {}

    # ------------------------------------------------------------ building
    def add_place(self, name: str, initial_tokens: int = 0) -> "SMSPN":
        if name in self._place_index:
            raise ValueError(f"duplicate place {name!r}")
        require(initial_tokens >= 0, "initial tokens must be non-negative")
        self._place_index[name] = len(self.places)
        self.places.append(name)
        self._initial[name] = int(initial_tokens)
        return self

    def add_transition(self, transition: Transition) -> "SMSPN":
        if any(t.name == transition.name for t in self.transitions):
            raise ValueError(f"duplicate transition {transition.name!r}")
        for place in list(transition.inputs) + list(transition.outputs):
            if place not in self._place_index:
                raise KeyError(f"transition {transition.name!r} references unknown place {place!r}")
        self.transitions.append(transition)
        return self

    def set_initial(self, **tokens: int) -> "SMSPN":
        for place, count in tokens.items():
            if place not in self._place_index:
                raise KeyError(f"unknown place {place!r}")
            require(count >= 0, "initial tokens must be non-negative")
            self._initial[place] = int(count)
        return self

    # ------------------------------------------------------------- queries
    @property
    def place_index(self) -> Mapping[str, int]:
        return dict(self._place_index)

    @property
    def initial_marking(self) -> tuple[int, ...]:
        return tuple(self._initial[p] for p in self.places)

    def view(self, marking: Sequence[int]) -> MarkingView:
        marking = tuple(int(t) for t in marking)
        if len(marking) != len(self.places):
            raise ValueError("marking length does not match the number of places")
        return MarkingView(marking, self._place_index)

    # ----------------------------------------------------------- semantics
    def enabled_transitions(self, marking: Sequence[int]) -> list[Transition]:
        """``EP(m)``: net-enabled transitions of maximal priority."""
        view = self.view(marking)
        enabled = [t for t in self.transitions if t.net_enabled(view)]
        if not enabled:
            return []
        top = max(t.priority_in(view) for t in enabled)
        return [t for t in enabled if t.priority_in(view) == top]

    def firing_choices(
        self, marking: Sequence[int]
    ) -> list[tuple[Transition, float, tuple[int, ...], Distribution]]:
        """All ``(transition, probability, next marking, sojourn)`` choices from ``marking``.

        The probability of each priority-enabled transition is its weight
        normalised over the weights of all priority-enabled transitions —
        the probabilistic (non-race) selection of the SM-SPN semantics.
        """
        view = self.view(marking)
        candidates = self.enabled_transitions(marking)
        if not candidates:
            return []
        weights = [t.weight_in(view) for t in candidates]
        total = sum(weights)
        if total <= 0:
            raise ValueError(
                f"no positive firing weight in marking {tuple(marking)} "
                f"(enabled: {[t.name for t in candidates]})"
            )
        choices = []
        for t, w in zip(candidates, weights):
            if w == 0.0:
                continue
            next_marking = t.fire(view, self._place_index)
            choices.append((t, w / total, next_marking, t.distribution_in(view)))
        return choices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SMSPN({self.name!r}, places={len(self.places)}, "
            f"transitions={len(self.transitions)})"
        )

