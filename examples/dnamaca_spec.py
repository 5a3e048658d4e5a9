#!/usr/bin/env python3
"""Working from a DNAmaca-style textual model specification.

The paper specifies its models in a semi-Markov extension of the DNAmaca
language (its Fig. 3 shows transition ``t5`` of the voting system).  This
example:

1. prints the generated specification text for a small voting configuration,
2. parses and compiles it into an SM-SPN,
3. generates the semi-Markov state space and checks it against the
   natively-constructed Python model,
4. runs a passage-time and a transient analysis through the public api
   facade (``repro.api.Model``), with predicates written in the
   specification's own expression language.

Run:  python examples/dnamaca_spec.py
"""
from __future__ import annotations

import numpy as np

from repro.api import Model
from repro.dnamaca import load_model, parse_model
from repro.models import (
    SCALED_CONFIGURATIONS,
    build_voting_graph,
    voting_spec_text,
)
from repro.petri import explore


def main() -> None:
    params = SCALED_CONFIGURATIONS["tiny"]
    spec_text = voting_spec_text(params)

    # ------------------------------------------------------------------
    # 1. Show the part of the specification the paper reproduces (t5).
    # ------------------------------------------------------------------
    t5_block = spec_text[spec_text.index(r"\transition{t5}") :]
    t5_block = t5_block[: t5_block.index(r"\transition{t6}")]
    print("transition t5 as written in the specification (cf. the paper's Fig. 3):")
    print(t5_block)

    # ------------------------------------------------------------------
    # 2. Parse, compile, and inspect.
    # ------------------------------------------------------------------
    spec = parse_model(spec_text, name="voting")
    print(f"parsed model: {len(spec.places)} places, {len(spec.transitions)} transitions, "
          f"constants {spec.constants}")

    net = load_model(spec_text, name="voting")
    graph = explore(net)
    reference = build_voting_graph(params)
    print(f"state space from the specification : {graph.n_states} states / {graph.n_edges} edges")
    print(f"state space from the Python model  : {reference.n_states} states / {reference.n_edges} edges")
    def canonical(markings: np.ndarray) -> np.ndarray:
        return markings[np.lexsort(markings.T[::-1])]

    assert np.array_equal(
        canonical(graph.marking_array()), canonical(reference.marking_array())
    ), "state spaces must agree"

    # ------------------------------------------------------------------
    # 3. Analyses through the api facade, with predicate *expressions*.
    # ------------------------------------------------------------------
    model = Model.from_spec(spec_text, name="voting")
    voting_started = "p1 == CC && p3 == MM && p5 == NN"
    all_voted = "p2 == CC"

    ts = np.linspace(4.0, 16.0, 7)
    passage = model.passage(voting_started, all_voted).density(ts).cdf().run()
    print(f"\npassage time to process all {params.voters} voters:")
    for t, F in zip(passage.t_points, passage.cdf):
        print(f"  P(done by {t:6.2f}) = {F:.4f}")

    transient = (
        model.transient(voting_started, "p2 >= 2")
        .probability([2.0, 5.0, 10.0, 50.0])
        .run()
    )
    print(f"\nP(at least 2 voters done at t) -> steady state {transient.steady_state:.4f}:")
    for t, p in zip(transient.t_points, transient.probability):
        print(f"  t={t:6.1f}: {p:.4f}")

    # ------------------------------------------------------------------
    # 4. Re-parameterise the same specification via constant overrides.
    # ------------------------------------------------------------------
    bigger = Model.from_spec(spec_text, overrides={"CC": 6, "MM": 3})
    print(f"\nsame specification with CC=6, MM=3 overrides: {bigger.n_states} states "
          f"(digest {bigger.digest})")


if __name__ == "__main__":
    main()
