"""Shared pytest fixtures for the test suite."""
from __future__ import annotations

import ast
import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.distributions import Deterministic, Erlang, Exponential, Uniform
from repro.smp import SMPBuilder

CANONICALISERS = ("canonical_s", "canonical_keys")


@functools.cache
def canonicalisation_consumers() -> tuple[str, ...]:
    """The ``repro`` modules that define or import a canonicaliser, by an ast
    scan of the source: the modules that hold a name to patch."""
    src = Path(repro.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                else {node.name} if isinstance(node, ast.FunctionDef)
                else set()
            )
            if named & set(CANONICALISERS):
                parts = path.relative_to(src.parent).with_suffix("").parts
                found.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
                break
    return tuple(found)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(20030422)


@pytest.fixture
def t_grid() -> np.ndarray:
    """A modest grid of time points used across inversion tests."""
    return np.array([0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])


@pytest.fixture
def embedded_solves(monkeypatch):
    """The chain size of every ``dtmc_steady_state`` call made, in order.

    The kernel memo — the one route to an embedded stationary-vector solve —
    resolves the function on ``repro.smp.embedded`` at call time, so counting
    there counts them all.
    """
    from repro.smp import embedded

    calls: list[int] = []
    real = embedded.dtmc_steady_state

    def counted(P):
        calls.append(P.shape[0])
        return real(P)

    monkeypatch.setattr(embedded, "dtmc_steady_state", counted)
    return calls


@pytest.fixture
def canonicalised(monkeypatch):
    """Points canonicalised so far, by the scalar or the vectorised function,
    wherever in ``repro`` the name was imported."""
    return count_canonicalisations(monkeypatch)


def count_canonicalisations(monkeypatch) -> list[int]:
    """The ``canonicalised`` fixture's body.  Every consumer is imported first,
    so one that nothing has loaded yet cannot escape the count."""
    from repro.laplace import inverter as inverter_module

    count = [0]
    scalar, vectorised = inverter_module.canonical_s, inverter_module.canonical_keys

    def counting_scalar(s, sig=10):
        count[0] += 1
        return scalar(s, sig)

    def counting_vectorised(s_points, sig=10):
        count[0] += int(np.asarray(s_points).size)
        return vectorised(s_points, sig)

    replacements = {"canonical_s": counting_scalar, "canonical_keys": counting_vectorised}
    originals = (scalar, vectorised)
    for name in canonicalisation_consumers():
        importlib.import_module(name)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attribute, replacement in replacements.items():
                if vars(module).get(attribute) in originals:
                    monkeypatch.setattr(module, attribute, replacement)
    return count


# ---------------------------------------------------------------------------
# Small reference SMP kernels shared by the smp, core, simulation and
# distributed test modules.
# ---------------------------------------------------------------------------


@pytest.fixture
def two_state_kernel():
    """0 -> 1 with Erlang(2, 3) sojourn, 1 -> 0 with Uniform(1, 2) sojourn."""
    b = SMPBuilder()
    b.add_state("a")
    b.add_state("b")
    b.add_transition("a", "b", 1.0, Erlang(2.0, 3))
    b.add_transition("b", "a", 1.0, Uniform(1.0, 2.0))
    return b.build()


@pytest.fixture
def ctmc_kernel():
    """A 2-state CTMC: up -> down at rate 2, down -> up at rate 3."""
    b = SMPBuilder()
    b.add_state("up")
    b.add_state("down")
    b.add_transition("up", "down", 1.0, Exponential(2.0))
    b.add_transition("down", "up", 1.0, Exponential(3.0))
    return b.build()


@pytest.fixture
def ring_kernel():
    """A 4-state ring with mixed sojourn distributions (deterministic included)."""
    b = SMPBuilder()
    for name in "pqrs":
        b.add_state(name)
    b.add_transition("p", "q", 1.0, Exponential(1.0))
    b.add_transition("q", "r", 1.0, Erlang(2.0, 2))
    b.add_transition("r", "s", 1.0, Deterministic(0.5))
    b.add_transition("s", "p", 1.0, Uniform(0.25, 0.75))
    return b.build()


@pytest.fixture
def branching_kernel():
    """A 5-state SMP with probabilistic branching and a return loop.

    State 0 branches to 1 (p=0.3) or 2 (p=0.7); both feed state 3, which
    either returns to 0 (p=0.6) or visits 4 first (p=0.4).
    """
    b = SMPBuilder()
    for i in range(5):
        b.add_state(f"s{i}")
    b.add_transition(0, 1, 0.3, Exponential(2.0))
    b.add_transition(0, 2, 0.7, Erlang(3.0, 2))
    b.add_transition(1, 3, 1.0, Uniform(0.0, 1.0))
    b.add_transition(2, 3, 1.0, Exponential(1.0))
    b.add_transition(3, 0, 0.6, Exponential(4.0))
    b.add_transition(3, 4, 0.4, Deterministic(0.2))
    b.add_transition(4, 0, 1.0, Exponential(5.0))
    return b.build()
