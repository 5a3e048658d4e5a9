"""Table 1 — voting-system configurations vs. semi-Markov state-space size.

The paper's Table 1 lists six (CC, MM, NN) configurations and the number of
reachable states of the underlying SMP (2 061 up to 1 140 050).  The exact
net of the paper's Fig. 2 is not published, so our reconstruction's counts
differ in absolute terms; this benchmark regenerates the table for our net —
the paper's systems 0 and 1 at their full parameters plus a scaled series
demonstrating the same growth — and prints the paper's counts alongside.

The timed kernel is the breadth-first state-space exploration itself.
"""
from __future__ import annotations

import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    VOTING_CONFIGURATIONS,
    VotingParameters,
    build_voting_graph,
)

#: Configurations regenerated by default; Table 1 rows 2-5 are reachable with
#: the same code path.
BENCH_CONFIGURATIONS: dict[str, VotingParameters] = {
    "scaled/tiny": SCALED_CONFIGURATIONS["tiny"],
    "scaled/small": SCALED_CONFIGURATIONS["small"],
    "system 0": VOTING_CONFIGURATIONS[0],
    "scaled/large": SCALED_CONFIGURATIONS["large"],
    "system 1": VOTING_CONFIGURATIONS[1],
}


@pytest.mark.benchmark(group="table1-state-space")
@pytest.mark.parametrize("label", list(BENCH_CONFIGURATIONS), ids=lambda s: s.replace("/", "-"))
def test_table1_state_space_generation(benchmark, label, report):
    params = BENCH_CONFIGURATIONS[label]
    graph = benchmark.pedantic(build_voting_graph, args=(params,), rounds=1, iterations=1)
    assert graph.n_states > 0 and not graph.truncated

    benchmark.extra_info["states"] = graph.n_states
    benchmark.extra_info["edges"] = graph.n_edges
    benchmark.extra_info["configuration"] = params.label

    # Accumulate the full table once all parametrisations have run.
    _RESULTS[label] = (params, graph.n_states, graph.n_edges)
    if len(_RESULTS) == len(BENCH_CONFIGURATIONS):
        lines = [
            "Table 1 — state-space sizes of the voting system",
            f"{'configuration':>14} {'CC':>4} {'MM':>4} {'NN':>4} "
            f"{'our states':>11} {'our edges':>10} {'paper states':>13}",
        ]
        for name, (p, states, edges) in _RESULTS.items():
            paper = p.paper_states if p.paper_states is not None else "-"
            lines.append(
                f"{name:>14} {p.voters:4d} {p.polling_units:4d} {p.central_units:4d} "
                f"{states:11d} {edges:10d} {paper!s:>13}"
            )
        lines.append("")
        lines.append(
            "note: paper counts refer to the unpublished net of its Fig. 2; the"
        )
        lines.append(
            "      reconstruction preserves the behavioural features and the growth"
        )
        lines.append("      of the state space with CC/MM/NN (README.md, Paper vs. reproduction).")
        report("table1_state_space", lines)


_RESULTS: dict[str, tuple] = {}


@pytest.mark.benchmark(group="table1-state-space")
def test_table1_growth_is_superlinear_in_voters(benchmark, report):
    """The qualitative claim behind Table 1: state count grows rapidly with CC."""

    def sweep():
        return [
            (voters, build_voting_graph(VotingParameters(voters, 6, 3)).n_states)
            for voters in (4, 8, 12, 18)
        ]

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["State-space growth with the number of voters (MM=6, NN=3):"]
    lines += [f"  CC={v:3d}  states={s}" for v, s in counts]
    report("table1_growth", lines)
    sizes = [s for _, s in counts]
    assert sizes == sorted(sizes)
    # Growth should outpace linear scaling in the voter count.
    assert sizes[-1] / sizes[0] > counts[-1][0] / counts[0][0]
