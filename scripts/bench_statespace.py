#!/usr/bin/env python
"""State-space exploration benchmark: the array explorer vs. the per-marking reference.

Explores a scaled voting model with the vectorized explorer all the way to a
ready CSR kernel, recording throughput (states/sec), peak RSS and the speedup
over the per-marking reference (``explore_reference``, the "legacy" of the
report keys) on the largest bundled example, as one JSON report written to
``--out FILE`` (nothing is written without it; ``BENCH_statespace.json`` at
the repository root is the committed full-mode record).

Modes
-----
``--smoke``
    CI guard: a medium configuration with *generous* floors (fractions of
    what the hardware actually does) so the step fails only on a real
    regression, never on a slow runner.
default (full)
    The acceptance-scale run: >= 10^6 tangible states explored to a ready
    kernel, checked against the 120 s / 4 GB / 10x floors.

Usage::

    PYTHONPATH=src python scripts/bench_statespace.py [--smoke] [--out FILE]
    PYTHONPATH=src python scripts/bench_statespace.py --out BENCH_statespace.json   # refresh the record
    PYTHONPATH=src python scripts/bench_statespace.py --cc 175 --mm 45 --nn 5
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.models import SCALED_CONFIGURATIONS
from repro.models.voting import VotingParameters, build_voting_net
from repro.petri import build_kernel, explore
from repro.petri.reachability import explore_reference

#: The acceptance-scale configuration (paper Table 1, row 5 shape): our net
#: reaches ~1.04M tangible states with CC=175, MM=45, NN=5.
FULL_SCALE = VotingParameters(175, 45, 5)
SMOKE_SCALE = SCALED_CONFIGURATIONS["medium"]
#: Largest bundled example — the legacy explorer is timed on this one.
LEGACY_SCALE = SCALED_CONFIGURATIONS["large"]


def peak_rss_bytes() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(usage) * (1 if sys.platform == "darwin" else 1024)


def time_exploration(net, explorer, *, max_states=None, with_kernel=True, repeats=1):
    """Explore (and optionally build the kernel), keeping the best of
    ``repeats`` timings — applied symmetrically to both explorers so a noisy
    co-tenant does not decide the comparison."""
    graph = kernel = None
    explore_seconds = kernel_seconds = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        graph = explorer(net, max_states=max_states)
        explore_seconds = min(explore_seconds, time.perf_counter() - start)
        if with_kernel:
            start = time.perf_counter()
            kernel = build_kernel(graph, allow_truncated=graph.truncated)
            kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
    return graph, kernel, explore_seconds, kernel_seconds if with_kernel else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI guard run")
    parser.add_argument("--cc", type=int, help="voters (CC) for a custom scale")
    parser.add_argument("--mm", type=int, help="polling units (MM)")
    parser.add_argument("--nn", type=int, help="central units (NN)")
    parser.add_argument(
        "--out", default=None, help="write the JSON report here (default: write nothing)"
    )
    parser.add_argument(
        "--skip-legacy", action="store_true",
        help="skip the legacy-explorer comparison (and its floor)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats, best run kept (default: 2 full, 1 smoke)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 2)

    if args.cc or args.mm or args.nn:
        params = VotingParameters(args.cc or 175, args.mm or 45, args.nn or 5)
    else:
        params = SMOKE_SCALE if args.smoke else FULL_SCALE

    # Floors: full mode enforces the acceptance criteria; smoke mode uses a
    # generous fraction of observed hardware numbers so CI only trips on a
    # real regression.
    if args.smoke:
        floors = {"max_seconds": 120.0, "max_rss_bytes": 4 << 30,
                  "min_states_per_sec": 5_000.0, "min_speedup": 2.0}
    else:
        floors = {"max_seconds": 120.0, "max_rss_bytes": 4 << 30,
                  "min_states_per_sec": None, "min_speedup": 10.0}

    print(f"# vectorized exploration: voting[{params.label}]", flush=True)
    net = build_voting_net(params)
    graph, kernel, explore_seconds, kernel_seconds = time_exploration(
        net, explore, repeats=repeats
    )
    states_per_sec = graph.n_states / explore_seconds
    print(
        f"  {graph.n_states} states, {graph.n_edges} edges in {explore_seconds:.2f}s "
        f"({states_per_sec:,.0f} states/sec), kernel ready in {kernel_seconds:.2f}s, "
        f"peak RSS {peak_rss_bytes() / (1 << 30):.2f} GiB",
        flush=True,
    )

    report = {
        "configuration": {
            "CC": params.voters, "MM": params.polling_units, "NN": params.central_units,
        },
        "mode": "smoke" if args.smoke else "full",
        "timing_repeats_best_of": repeats,
        "states_explored": graph.n_states,
        "edges": graph.n_edges,
        "explore_seconds": round(explore_seconds, 3),
        "kernel_seconds": round(kernel_seconds, 3),
        "total_seconds": round(explore_seconds + kernel_seconds, 3),
        "states_per_sec": round(states_per_sec, 1),
        "kernel_transitions": kernel.n_transitions,
        "kernel_distinct_distributions": kernel.n_distributions,
        "peak_rss_bytes": peak_rss_bytes(),
        "floors": floors,
    }

    if not args.skip_legacy:
        # Smoke compares both explorers end-to-end on the largest SCALED
        # example.  Full mode measures the legacy explorer on the *same*
        # acceptance-scale net, capped: per-state work is identical across the
        # exploration, so throughput over a 120k-state prefix is a fair
        # (slightly generous) stand-in for the multi-minute full legacy run.
        if args.smoke:
            legacy_params, legacy_cap = LEGACY_SCALE, None
        else:
            legacy_params, legacy_cap = params, min(120_000, graph.n_states)
        print(
            f"# legacy comparison on voting[{legacy_params.label}]"
            + (f" (capped at {legacy_cap} states)" if legacy_cap else ""),
            flush=True,
        )
        legacy_graph, _, legacy_seconds, _ = time_exploration(
            build_voting_net(legacy_params), explore_reference,
            max_states=legacy_cap, with_kernel=False, repeats=repeats,
        )
        legacy_rate = legacy_graph.n_states / legacy_seconds
        if args.smoke:
            vec_graph, _, vec_seconds, _ = time_exploration(
                build_voting_net(legacy_params), explore,
                with_kernel=False, repeats=repeats,
            )
            assert vec_graph.n_states == legacy_graph.n_states
            vec_rate = vec_graph.n_states / vec_seconds
        else:
            vec_rate, vec_seconds = states_per_sec, explore_seconds
        speedup = vec_rate / legacy_rate
        print(
            f"  legacy {legacy_graph.n_states} states in {legacy_seconds:.2f}s "
            f"({legacy_rate:,.0f}/sec) vs vectorized {vec_rate:,.0f}/sec "
            f"-> {speedup:.1f}x",
            flush=True,
        )
        report["legacy_comparison"] = {
            "configuration": {
                "CC": legacy_params.voters, "MM": legacy_params.polling_units,
                "NN": legacy_params.central_units,
            },
            "legacy_states": legacy_graph.n_states,
            "legacy_cap": legacy_cap,
            "legacy_seconds": round(legacy_seconds, 3),
            "legacy_states_per_sec": round(legacy_rate, 1),
            "vectorized_states_per_sec": round(vec_rate, 1),
            "speedup": round(speedup, 2),
        }

    failures = []
    total = report["total_seconds"]
    if floors["max_seconds"] is not None and total > floors["max_seconds"]:
        failures.append(f"exploration+kernel took {total:.1f}s > {floors['max_seconds']}s")
    if floors["max_rss_bytes"] is not None and report["peak_rss_bytes"] > floors["max_rss_bytes"]:
        failures.append(
            f"peak RSS {report['peak_rss_bytes'] / (1 << 30):.2f} GiB > "
            f"{floors['max_rss_bytes'] / (1 << 30):.0f} GiB"
        )
    if floors["min_states_per_sec"] and states_per_sec < floors["min_states_per_sec"]:
        failures.append(
            f"throughput {states_per_sec:,.0f}/sec < {floors['min_states_per_sec']:,.0f}/sec"
        )
    if (
        not args.skip_legacy
        and floors["min_speedup"]
        and report["legacy_comparison"]["speedup"] < floors["min_speedup"]
    ):
        failures.append(
            f"speedup {report['legacy_comparison']['speedup']}x < {floors['min_speedup']}x"
        )
    report["failures"] = failures

    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"# wrote {args.out}", flush=True)

    if failures:
        for failure in failures:
            print(f"FLOOR VIOLATED: {failure}", file=sys.stderr)
        return 1
    print("# all floors satisfied", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
