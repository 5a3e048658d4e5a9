"""The distributed voting system of Section 5.2, as a semi-Markov SPN.

The net follows the textual description of the paper (Fig. 1/2): voting
agents queue to vote (place ``p1``), are processed by a limited pool of
polling units (idle in ``p3``, busy in ``p4``), and each processed vote is
registered with every currently operational central voting unit (``p5``)
before the agent is marked as having voted (``p2``).  Polling units and
central voting units fail (``p7`` / ``p6``) and self-recover; a complete
failure of either pool triggers a high-priority bulk repair (transition
``t5`` for polling units — the transition whose DNAmaca definition the paper
reproduces in Fig. 3 — and ``t6`` for central units).

The exact graphical net of the paper's Fig. 2 is not recoverable from the
text, so absolute state-space sizes differ from Table 1; the model preserves
every behavioural feature the paper describes (README.md, "Paper vs.
reproduction").

Parameters
----------
``CC`` voters, ``MM`` polling units, ``NN`` central voting units — the three
knobs of Table 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..distributions import Erlang, Exponential, Mixture, Uniform
from ..petri.net import SMSPN, MarkingView, Transition
from ..petri.statespace import StateSpace, build_kernel, explore
from ..smp.kernel import SMPKernel

__all__ = [
    "VotingParameters",
    "VOTING_CONFIGURATIONS",
    "SCALED_CONFIGURATIONS",
    "build_voting_net",
    "build_voting_graph",
    "build_voting_kernel",
    "all_voted_predicate",
    "voters_done_predicate",
    "failure_mode_predicate",
    "fully_operational_predicate",
    "initial_marking_predicate",
]


@dataclass(frozen=True)
class VotingParameters:
    """One row of Table 1: voters, polling units and central voting units."""

    voters: int          # CC
    polling_units: int   # MM
    central_units: int   # NN
    paper_states: int | None = None

    def __post_init__(self):
        if min(self.voters, self.polling_units, self.central_units) < 1:
            raise ValueError("CC, MM and NN must all be at least 1")

    @property
    def label(self) -> str:
        return f"CC={self.voters}, MM={self.polling_units}, NN={self.central_units}"


#: The six configurations of Table 1 together with the state counts the paper
#: reports for its (unpublished) net.
VOTING_CONFIGURATIONS: dict[int, VotingParameters] = {
    0: VotingParameters(18, 6, 3, paper_states=2_061),
    1: VotingParameters(60, 25, 4, paper_states=106_540),
    2: VotingParameters(100, 30, 4, paper_states=249_760),
    3: VotingParameters(125, 40, 4, paper_states=541_280),
    4: VotingParameters(150, 40, 5, paper_states=778_850),
    5: VotingParameters(175, 45, 5, paper_states=1_140_050),
}

#: Reduced configurations with the same structure, used where pure-Python
#: state-space generation of the full Table 1 rows would dominate run time
#: (tests, examples and the default benchmark settings).
SCALED_CONFIGURATIONS: dict[str, VotingParameters] = {
    "tiny": VotingParameters(4, 2, 2),
    "small": VotingParameters(8, 3, 2),
    "medium": VotingParameters(18, 6, 3),      # system 0 of the paper
    "large": VotingParameters(40, 10, 3),
}


# Firing-time distributions (time unit: seconds) and firing weights.
#
# The paper publishes only t5's firing distribution (Fig. 3); the remaining
# choices below use the same kinds of distribution (uniform voting/collection
# delays, Erlang registration and recovery, a mixed bulk repair).  Because
# SM-SPN semantics select the firing transition *probabilistically by weight*
# (not by racing the firing distributions), the weights encode how likely each
# kind of event is to happen next: voting activity dominates, unit failures
# are rare, self-recovery is in between.  This keeps the model in the regime
# the paper describes — frequent voting, occasional failures, complete
# failures rare enough that the simulator struggles to observe them (Fig. 6).
_VOTE_DELAY = Uniform(0.2, 1.0)


def _registration_delay(m: MarkingView):
    # The polling unit contacts every operational central voting unit in turn,
    # so the registration time is an Erlang with one phase per operational unit.
    operational = max(int(m["p5"]), 1)
    return Erlang(4.0, operational)


_POLLING_FAILURE = Exponential(0.5)    # time for a fault to manifest once selected
_CENTRAL_FAILURE = Exponential(0.5)
_SELF_RECOVERY = Erlang(1.0, 2)
# Fig. 3: the bulk repair is usually a technician visit (uniform 1.5-10s)
# but occasionally a long procurement delay (Erlang(0.001, 5)).
_BULK_REPAIR = Mixture([Uniform(1.5, 10.0), Erlang(0.001, 5)], [0.8, 0.2])

#: Relative firing weights of the competing activities.
_WEIGHTS = {
    "vote": 8.0,
    "register": 8.0,
    "polling_failure": 0.2,
    "central_failure": 0.1,
    "self_recovery": 1.5,
}


def build_voting_net(params: VotingParameters) -> SMSPN:
    """Construct the SM-SPN of the voting system for one configuration.

    Guards, actions and the marking-dependent registration delay are given in
    *declarative* form (expression strings over places and the ``CC``/``MM``/
    ``NN`` constants, plus ``distribution_depends``), so the vectorized
    explorer expands whole frontiers of this net as batched NumPy operations
    — the semantics are identical to the previous lambda-based definitions.
    """
    cc, mm, nn = params.voters, params.polling_units, params.central_units
    consts = {"CC": float(cc), "MM": float(mm), "NN": float(nn)}
    net = SMSPN(name=f"voting[{params.label}]")
    net.add_place("p1", cc)   # voters still to vote
    net.add_place("p2", 0)    # voters that have voted
    net.add_place("p3", mm)   # idle polling units
    net.add_place("p4", 0)    # busy polling units (one voter being processed)
    net.add_place("p5", nn)   # operational central voting units
    net.add_place("p6", 0)    # failed central voting units
    net.add_place("p7", 0)    # failed polling units

    # t1: a waiting voter is picked up by an idle polling unit.
    net.add_transition(
        Transition(
            name="t1",
            inputs={"p1": 1, "p3": 1},
            outputs={"p4": 1},
            priority=1,
            weight=_WEIGHTS["vote"],
            distribution=_VOTE_DELAY,
        )
    )
    # t2: the vote is registered with all operational central units (p5 is
    # only *read* — the units stay operational); the voter is done and the
    # polling unit returns to the idle pool.
    net.add_transition(
        Transition(
            name="t2",
            inputs={"p4": 1},
            outputs={"p2": 1, "p3": 1},
            guard="p5 >= 1",
            priority=1,
            weight=_WEIGHTS["register"],
            distribution=_registration_delay,
            distribution_depends=("p5",),
        )
    )
    # t3: an idle polling unit fails.
    net.add_transition(
        Transition(
            name="t3",
            inputs={"p3": 1},
            outputs={"p7": 1},
            priority=1,
            weight=_WEIGHTS["polling_failure"],
            distribution=_POLLING_FAILURE,
        )
    )
    # t3b: a busy polling unit fails; the voter it was serving rejoins the queue.
    net.add_transition(
        Transition(
            name="t3b",
            inputs={"p4": 1},
            outputs={"p7": 1, "p1": 1},
            priority=1,
            weight=_WEIGHTS["polling_failure"],
            distribution=_POLLING_FAILURE,
        )
    )
    # t4: a central voting unit fails.
    net.add_transition(
        Transition(
            name="t4",
            inputs={"p5": 1},
            outputs={"p6": 1},
            priority=1,
            weight=_WEIGHTS["central_failure"],
            distribution=_CENTRAL_FAILURE,
        )
    )
    # t5: every polling unit has failed -> high-priority bulk repair
    # (the transition of Fig. 3: moves MM tokens p7 -> p3).
    net.add_transition(
        Transition(
            name="t5",
            inputs={},
            outputs={},
            guard="p7 > MM - 1",
            action={"p3": "p3 + MM", "p7": "p7 - MM"},
            priority=2,
            weight=1.0,
            distribution=_BULK_REPAIR,
            constants=consts,
        )
    )
    # t6: every central voting unit has failed -> high-priority bulk repair.
    net.add_transition(
        Transition(
            name="t6",
            inputs={},
            outputs={},
            guard="p6 > NN - 1",
            action={"p5": "p5 + NN", "p6": "p6 - NN"},
            priority=2,
            weight=1.0,
            distribution=_BULK_REPAIR,
            constants=consts,
        )
    )
    # t9: once every voter has been processed a new election round begins and
    # the voter population re-enters the queue.  This keeps the SMP
    # irreducible (so steady-state quantities and the Fig. 7 transient limit
    # are non-trivial) and models the recurring elections the paper's
    # throughput measure implies.  It fires at priority 2 so that the round
    # change is not delayed behind failure events.
    net.add_transition(
        Transition(
            name="t9",
            inputs={},
            outputs={},
            guard="p2 >= CC",
            action={"p1": "p1 + CC", "p2": "p2 - CC"},
            priority=2,
            weight=1.0,
            distribution=Uniform(2.0, 6.0),
            constants=consts,
        )
    )
    # t7 / t8: partial failures self-recover one unit at a time.
    net.add_transition(
        Transition(
            name="t7",
            inputs={"p7": 1},
            outputs={"p3": 1},
            guard="p7 < MM",
            priority=1,
            weight=_WEIGHTS["self_recovery"],
            distribution=_SELF_RECOVERY,
            constants=consts,
        )
    )
    net.add_transition(
        Transition(
            name="t8",
            inputs={"p6": 1},
            outputs={"p5": 1},
            guard="p6 < NN",
            priority=1,
            weight=_WEIGHTS["self_recovery"],
            distribution=_SELF_RECOVERY,
            constants=consts,
        )
    )
    return net


def build_voting_graph(params: VotingParameters, **explore_options) -> StateSpace:
    """Explored state space of the voting SM-SPN."""
    return explore(build_voting_net(params), **explore_options)


def build_voting_kernel(params: VotingParameters, **explore_options) -> tuple[SMPKernel, StateSpace]:
    """State space + SMP kernel of the voting system in one call."""
    graph = build_voting_graph(params, **explore_options)
    return build_kernel(graph), graph


# ---------------------------------------------------------------------------
# Marking predicates for the measures reported in the paper's Section 5.3.
# ---------------------------------------------------------------------------


def initial_marking_predicate(params: VotingParameters):
    """The fully-operational initial marking (all voters waiting)."""
    cc, mm, nn = params.voters, params.polling_units, params.central_units

    def predicate(m: MarkingView) -> bool:
        return (
            m["p1"] == cc
            and m["p2"] == 0
            and m["p3"] == mm
            and m["p4"] == 0
            and m["p5"] == nn
            and m["p6"] == 0
            and m["p7"] == 0
        )

    return predicate


def all_voted_predicate(params: VotingParameters):
    """Markings in which every voter has been processed (``p2 == CC``)."""
    cc = params.voters
    return lambda m: m["p2"] == cc


def voters_done_predicate(count: int):
    """Markings in which at least ``count`` voters have voted (``p2 >= count``)."""
    return lambda m: m["p2"] >= count


def failure_mode_predicate(params: VotingParameters):
    """Markings in which all polling units or all central units have failed."""
    mm, nn = params.polling_units, params.central_units
    return lambda m: m["p7"] >= mm or m["p6"] >= nn


def fully_operational_predicate(params: VotingParameters):
    """Markings with no failed units at all (any voting progress)."""
    return lambda m: m["p6"] == 0 and m["p7"] == 0
