#!/usr/bin/env python3
"""The public analysis API: Model -> Query -> Engine, one surface for everything.

This walkthrough drives the whole pipeline (DNAmaca spec -> reachability ->
SMP kernel -> s-point transform evaluation -> Laplace inversion) through
``repro.api`` — the same facade the CLI, the analysis service, and the
benchmarks use:

1. a lazy, content-addressed ``Model`` from an inline specification,
2. a fluent passage-time query (density + CDF + quantile) and its plan,
3. the *same query object* executed on the inline, multiprocessing,
   distributed (with checkpoint/resume) and remote (live HTTP server)
   engines — returning identical numbers,
4. a transient query and a validating Monte-Carlo simulation query.

Run:  python examples/api_quickstart.py
"""
from __future__ import annotations

import tempfile
import threading

import numpy as np

from repro.api import DistributedEngine, Model

MACHINE_SPEC = r"""
% A machine shop: K machines failing (Erlang) and being repaired (uniform).
\constant{K}{3}
\model{
  \place{up}{K}
  \place{down}{0}
  \transition{fail}{
    \condition{up > 0}
    \action{ next->up = up - 1; next->down = down + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return erlangLT(2.0, 3, s); }
  }
  \transition{repair}{
    \condition{down > 0}
    \action{ next->up = up + 1; next->down = down - 1; }
    \weight{2.0}
    \priority{1}
    \sojourntimeLT{ return uniformLT(1.0, 2.0, s); }
  }
}
"""


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A lazy, content-addressed model.
    # ------------------------------------------------------------------
    model = Model.from_spec(MACHINE_SPEC, name="machine-shop")
    print(f"model: {model}")
    print(f"constants (no state space built yet): {model.constants}")

    # ------------------------------------------------------------------
    # 2. A fluent query and its evaluation plan.
    # ------------------------------------------------------------------
    t_points = [1.0, 2.0, 4.0, 8.0]
    query = (
        model.passage("up == K", "down == K")   # all machines down
        .density(t_points)
        .cdf()
        .quantile(0.9)
    )
    plan = query.plan()
    print(f"\nquery plan before any evaluation: {plan.describe()}")

    # ------------------------------------------------------------------
    # 3. One query, four engines, identical numbers.
    # ------------------------------------------------------------------
    results = {"inline": query.run()}
    results["multiprocessing"] = query.run(engine="multiprocessing", processes=2)

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        engine = DistributedEngine(checkpoint=checkpoint_dir)
        results["distributed"] = query.run(engine)
        resumed = query.run(DistributedEngine(checkpoint=checkpoint_dir))
        print(f"\ndistributed resume recomputed "
              f"{resumed.statistics['s_points_computed']} s-points "
              f"(the grid's {resumed.statistics['s_points_from_disk']} from the "
              f"checkpoint, the quantile probes from the memory tier it warmed)")

    from repro.service import AnalysisService, create_server

    server = create_server(AnalysisService(), port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    results["remote"] = query.run(engine="remote", url=url)
    warm = query.run(engine="remote", url=url)
    print(f"remote warm repeat evaluated "
          f"{warm.statistics['s_points_computed']} s-points "
          f"({warm.statistics['s_points_from_memory']} from server memory)")
    server.shutdown()
    server.server_close()

    reference = results["inline"]
    print(f"\n{'t':>6} {'f(t)':>12} {'F(t)':>12}")
    for t, f, F in zip(reference.t_points, reference.density, reference.cdf):
        print(f"{t:6.2f} {f:12.6f} {F:12.6f}")
    print(f"90th percentile: {reference.quantiles[0.9]:.4f}")

    print("\nengine parity (max |diff| vs inline):")
    for name, result in results.items():
        worst = max(
            float(np.max(np.abs(result.density - reference.density))),
            float(np.max(np.abs(result.cdf - reference.cdf))),
            abs(result.quantiles[0.9] - reference.quantiles[0.9]),
        )
        print(f"  {name:>16}: {worst:.2e}")
        assert worst < 1e-10

    # ------------------------------------------------------------------
    # 4. Transient probability and validating simulation.
    # ------------------------------------------------------------------
    transient = (
        model.transient("up == K", "up > 0").probability([0.5, 2.0, 10.0, 50.0]).run()
    )
    print("\ntransient availability P(any machine up at t):")
    for t, p in zip(transient.t_points, transient.probability):
        print(f"  t={t:6.1f}   {p:.4f}")
    print(f"steady state: {transient.steady_state:.4f}")

    simulated = model.simulate(
        "down == K", replications=5000, seed=42, t_points=t_points
    ).run()
    worst = float(np.max(np.abs(simulated.cdf - reference.cdf)))
    print(f"\nsimulation cross-check ({simulated.n_replications} replications): "
          f"max |F_analytic - F_simulated| = {worst:.3f}")


if __name__ == "__main__":
    main()
