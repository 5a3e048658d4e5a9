"""Incremental construction of :class:`~repro.smp.kernel.SMPKernel` instances."""
from __future__ import annotations

from collections import defaultdict

from ..distributions import Distribution
from ..utils.validation import require
from .kernel import SMPKernel

__all__ = ["SMPBuilder"]


class SMPBuilder:
    """Builds an SMP kernel transition by transition.

    States may be referred to by integer index (``add_transition(0, 3, ...)``)
    or created by name (``add_state("idle")``).  :meth:`build` orders the
    transitions by ``(src, dst)``, numbers their distributions by first use
    and hands the columns to :meth:`SMPKernel.from_columns`, which validates
    them and merges parallel transitions between the same pair of states into
    one whose probability is the sum and whose sojourn distribution is the
    probability-weighted :class:`~repro.distributions.Mixture` — exactly the
    semantics of competing SM-SPN transitions mapped onto one kernel entry.
    """

    def __init__(self, n_states: int | None = None):
        self._explicit_n_states = n_states
        self._names: list[str] = []
        self._name_to_index: dict[str, int] = {}
        # (src, dst) -> list of (prob, Distribution)
        self._entries: dict[tuple[int, int], list[tuple[float, Distribution]]] = defaultdict(list)
        self._max_index = -1

    # -------------------------------------------------------------- states
    def add_state(self, name: str | None = None) -> int:
        """Register a new state, optionally named, and return its index."""
        index = len(self._names)
        if self._explicit_n_states is not None and index >= self._explicit_n_states:
            raise ValueError("more states added than declared in n_states")
        if name is None:
            name = str(index)
        if name in self._name_to_index:
            raise ValueError(f"duplicate state name {name!r}")
        self._names.append(name)
        self._name_to_index[name] = index
        self._max_index = max(self._max_index, index)
        return index

    def state(self, ref: int | str) -> int:
        """Resolve a state reference (index or name) to an index.

        Referring to an unseen *name* registers it on the fly (so small models
        can be written as a flat list of ``add_transition`` calls); integer
        references never create states.
        """
        if isinstance(ref, str):
            if ref not in self._name_to_index:
                return self.add_state(ref)
            return self._name_to_index[ref]
        index = int(ref)
        require(index >= 0, "state indices must be non-negative")
        self._max_index = max(self._max_index, index)
        return index

    # --------------------------------------------------------- transitions
    def add_transition(
        self,
        src: int | str,
        dst: int | str,
        probability: float,
        sojourn: Distribution,
    ) -> "SMPBuilder":
        """Add a transition ``src -> dst`` taken with ``probability`` after ``sojourn``."""
        if not isinstance(sojourn, Distribution):
            raise TypeError("sojourn must be a Distribution")
        probability = float(probability)
        require(probability >= 0.0, "transition probability must be non-negative")
        if probability == 0.0:
            return self
        i, j = self.state(src), self.state(dst)
        self._entries[(i, j)].append((probability, sojourn))
        return self

    # -------------------------------------------------------------- build
    @property
    def n_states(self) -> int:
        if self._explicit_n_states is not None:
            return self._explicit_n_states
        return self._max_index + 1

    def build(self, *, normalise: bool = False) -> SMPKernel:
        """Assemble the kernel.

        Parameters
        ----------
        normalise:
            When true, each state's outgoing probabilities are rescaled to sum
            to one (useful when transitions carry raw weights rather than
            probabilities, as in SM-SPN reachability graphs).
        """
        if not self._entries:
            raise ValueError("no transitions have been added")
        n = self.n_states

        # Un-merged branches in (src, dst) order, insertion order within a
        # pair; distributions numbered by first use (structural equality).
        src, dst, probs, dist_index = [], [], [], []
        unique: list[Distribution] = []
        index_of: dict[Distribution, int] = {}
        for (i, j), branches in sorted(self._entries.items()):
            for probability, dist in branches:
                if dist not in index_of:
                    index_of[dist] = len(unique)
                    unique.append(dist)
                src.append(i)
                dst.append(j)
                probs.append(probability)
                dist_index.append(index_of[dist])

        names = None
        if self._names:
            names = list(self._names) + [str(i) for i in range(len(self._names), n)]
        return SMPKernel.from_columns(
            n, src, dst, probs, dist_index, unique, names, normalise=normalise
        )
