"""Bit-level dump of the solver's answers: ``python scripts/bitdump.py OUT.json
[--against PARENT.json]``.

A solver PR that claims "same arithmetic per point" proves it by running this
script on a scratch clone of its parent and on itself and comparing the two
files byte for byte (``cmp``); CI runs it twice on one tree as a determinism
gate.  Every float is written as ``float.hex()``, every count as an int, no
timing and no path enters the file, and only result fields that a solver PR
must not move are dumped (so a PR may *add* statistics keys).

A PR that *means* to move values (it bumps ``DIGEST_EPOCH``) passes its
parent's dump as ``--against``: every scenario is then classified as
identical, digest-only or values-moved with the largest relative move per
field, and the exit status is non-zero if any count or label (``iterations``,
``converged``, ``solver``, ``direct_solves``, statistics, block shapes) differs,
a scenario is missing on either side, or any float moved by more than 1e-9
relative.

The scenario matrix (about 30 s on a 2-core box):

* facade — models (voting (8,3,2), system 0, voting (30,8,3)) × passage
  density+CDF / quantile / transient × Euler / Laguerre × iterative / direct
  × inline / 2-worker pool, pruned where a cell adds time but no new code
  path, plus system 0's far tail (part of the grid routed to the sparse LU)
  and Fig. 6's failure-mode passage at t = 1,000 (every point routed);
  model and job digests ride along;
* kernel level — the passage (``passage_transform_batch``) and the transient
  (``transient_transform_batch``), both the row form's block solve, on
  voting (8,3,2), a ``repro.models`` builder kernel and the high-fan-out
  kernel the factored engine exists for × batch / factored × default /
  cap-hit / cap-hit-with-fallback / routed-by-policy policies, plus the transient's per-point
  regime and the batch engine's passage walk on its three shapes (many
  windows from many sources, a source that is a target, one strong
  component), with every point's ``iterations``, ``converged``,
  ``final_delta``, ``solver``, ``direct_solves`` and ``matvec_count``;
* explore — every bundled net (the DNAmaca voting spec at four sizes up to
  the paper's system 1, the programmatic voting net and the web-server net)
  explored once: state and edge counts, the truncation flag and the sha256 of
  the marking matrix, the five edge columns, the deadlock list and the
  distribution table's reprs, so an explorer PR's identity claim is a
  ``cmp`` too.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from repro.api import Model, build_job, resolve_state_sets  # noqa: E402
from repro.distributions import Erlang, Exponential, Uniform  # noqa: E402
from repro.laplace import EulerInverter  # noqa: E402
from repro.dnamaca import load_model  # noqa: E402
from repro.models import (  # noqa: E402
    VotingParameters,
    build_voting_net,
    mg1_queue_kernel,
    voting_spec_text,
    web_server_net,
)
from repro.petri import explore  # noqa: E402
from repro.service.registry import ModelRegistry  # noqa: E402
from repro.smp import (  # noqa: E402
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
    transient_transform_batch,
)
from repro.smp import passage as passage_module  # noqa: E402

SOURCE, TARGET = "p1 == CC", "p2 == CC"
#: statistics a solver PR must not move (timings and added keys stay out)
STATISTICS = (
    "s_points_required", "s_points_computed", "batches", "evaluator_engine",
    "conjugates_folded",
)
BLOCK_FIELDS = ("points", "iterations", "direct_solves", "unconverged")


def hexes(values) -> list[str]:
    """Every float of ``values`` as hex."""
    flat = np.asarray(values).ravel()
    if np.iscomplexobj(flat):
        flat = flat.view(float)
    return [float(v).hex() for v in flat]


# ------------------------------------------------------------------- facade
def dump_result(query, result, sources, targets) -> dict:
    entry = query.model.entry
    job = build_job(
        entry, query.kind, sources, targets, solver=query.solver, epsilon=query.epsilon
    )
    out = {"model": query.model.digest, "job": job.digest()}
    for name in ("density", "cdf", "probability"):
        if getattr(result, name, None) is not None:
            out[name] = hexes(getattr(result, name))
    if getattr(result, "quantiles", None):
        out["quantiles"] = {repr(q): float(t).hex() for q, t in result.quantiles.items()}
    if getattr(result, "steady_state", None) is not None:
        out["steady_state"] = float(result.steady_state).hex()
    transforms = result.transform_values
    out["transform"] = {repr(s): hexes([transforms[s]]) for s in sorted(transforms, key=repr)}
    stats = result.statistics
    out["statistics"] = {key: stats.get(key) for key in STATISTICS}
    # a pool lands its blocks in completion order: sort, the multiset is the fact
    out["solve_blocks"] = sorted(
        [block.get(field) for field in BLOCK_FIELDS] for block in stats.get("solve_blocks", ())
    )
    return out


def facade_scenarios() -> dict:
    registry = ModelRegistry()
    small = Model.from_spec(voting_spec_text(VotingParameters(8, 3, 2)), registry=registry)
    system0 = Model.from_spec(voting_spec_text(VotingParameters(18, 6, 3)), registry=registry)
    medium = Model.from_spec(voting_spec_text(VotingParameters(30, 8, 3)), registry=registry)
    pool = {"engine": "multiprocessing", "workers": 2}
    runs = []  # (label, query, engine options)

    def add(label, query, **engine):
        runs.append((label, query, engine))

    small_t = [2.0, 5.0, 10.0, 20.0]
    for inversion in ("euler", "laguerre"):
        for solver in ("iterative", "direct"):
            for where, engine in (("inline", {}), ("pool2", pool)):
                tag = f"voting832/{inversion}/{solver}/{where}"
                passage = small.passage(SOURCE, TARGET).density(small_t).cdf()
                add(f"{tag}/passage", passage.with_inversion(inversion).with_solver(solver),
                    **engine)
                transient = small.transient(SOURCE, TARGET).probability(small_t)
                add(f"{tag}/transient",
                    transient.with_inversion(inversion).with_solver(solver), **engine)
        add(f"voting832/{inversion}/iterative/inline/quantile",
            small.passage(SOURCE, TARGET).density(small_t).quantile(0.9)
            .with_inversion(inversion))
    bench = system0.passage(SOURCE, TARGET).density([15.0, 27.0, 60.0]).cdf()
    add("system0/euler/iterative/inline/passage", bench)
    add("system0/euler/iterative/pool2/passage", bench, **pool)
    add("system0/euler/direct/inline/passage", bench.with_solver("direct"))
    add("system0/laguerre/iterative/inline/passage", bench.with_inversion("laguerre"))
    add("system0/euler/iterative/inline/quantile",
        system0.passage(SOURCE, TARGET).density([27.0]).quantile(0.5))
    # far tail: the default policy routes part of the grid to the sparse LU
    add("system0/euler/iterative/inline/tail640",
        system0.passage(SOURCE, TARGET).density([640.0]).cdf())
    # Fig. 6's rare-event passage: every point routed, one strong component
    add("system0/euler/iterative/inline/failure1000",
        system0.passage("p1 == CC && p3 == MM && p5 == NN", "p7 >= MM || p6 >= NN")
        .density([1000.0]).cdf())
    add("system0/euler/iterative/inline/transient",
        system0.transient(SOURCE, "p2 >= 17").probability([10.0, 30.0]))
    add("voting3083/euler/iterative/inline/passage",
        medium.passage(SOURCE, TARGET).density([30.0, 60.0]).cdf())

    out = {}
    for label, query, engine in runs:
        sources, targets = resolve_state_sets(query.model.entry, query.source, query.target)
        out[label] = dump_result(query, query.run(**engine), sources, targets)
    return out


# ------------------------------------------------------------- kernel level
def fan_out_kernel(n_states: int = 120, degree: int = 30, seed: int = 7):
    """High fan-out, few distributions: ``auto`` picks the factored engine."""
    rng = np.random.default_rng(seed)
    sojourns = [Exponential(1.2), Erlang(2.0, 3), Uniform(0.2, 1.4), Exponential(4.0)]
    builder = SMPBuilder()
    for state in range(n_states):
        builder.add_state(f"s{state}")
    for state in range(n_states):
        successors = np.unique(
            np.concatenate([[(state + 1) % n_states], rng.integers(0, n_states, degree)])
        )
        successors = successors[successors != state]
        weights = rng.random(successors.size) + 0.05
        weights /= weights.sum()
        for successor, weight in zip(successors, weights):
            sojourn = sojourns[int(rng.integers(0, len(sojourns)))]
            builder.add_transition(state, int(successor), float(weight), sojourn)
    return builder.build()


def dump_diagnostics(diagnostics) -> list:
    return [
        [d.iterations, bool(d.converged), float(d.final_delta).hex(), d.solver,
         d.direct_solves, d.matvec_count, d.engine]
        for d in diagnostics
    ]


def kernel_scenarios() -> dict:
    registry = ModelRegistry()
    small = Model.from_spec(voting_spec_text(VotingParameters(8, 3, 2)), registry=registry)
    sources, targets = resolve_state_sets(small.entry, SOURCE, TARGET)
    kernels = {
        "voting832": (small.entry.kernel, sources, targets),
        "mg1": (mg1_queue_kernel(), [0], None),
        "fanout": (fan_out_kernel(), [0, 3], None),
    }
    grid = np.asarray(EulerInverter().required_s_points(np.asarray([2.0, 9.0, 40.0])))
    grid = grid[grid != 0]
    policies = {
        "default": (PassageTimeOptions(), {}),
        "cap": (PassageTimeOptions(max_iterations=12), {"fallback_to_direct": False}),
        "cap+fallback": (PassageTimeOptions(max_iterations=12), {"fallback_to_direct": True}),
        # every point the policy routes to the sparse LU (no point predicts a
        # single iteration): the LU on each engine, for both forms
        "routed": (PassageTimeOptions(), {"predicted_iteration_limit": 1}),
    }
    out = {}

    def run_forms(label, kernel, alpha, targets, options, policy):
        values, diags = passage_transform_batch(
            kernel, alpha, targets, grid, options, policy=policy
        )
        out[f"{label}/row"] = {"values": hexes(values), "points": dump_diagnostics(diags)}
        values, diags = transient_transform_batch(
            kernel, alpha, targets[:3], grid[:20], options, policy=policy
        )
        out[f"{label}/transient"] = {"values": hexes(values), "points": dump_diagnostics(diags)}

    for name, (kernel, source_states, target_states) in kernels.items():
        if target_states is None:
            target_states = [kernel.n_states - 1, kernel.n_states - 2]
        alpha = source_weights(kernel, source_states)
        target_states = np.asarray(target_states)
        for engine in ("batch", "factored"):
            for policy_name, (options, fields) in policies.items():
                run_forms(
                    f"kernel/{name}/{engine}/{policy_name}", kernel, alpha,
                    target_states, options, SPointPolicy(engine=engine, **fields),
                )
        direct, diags = passage_transform_batch(
            kernel, alpha, target_states, grid[:12], solver="direct"
        )
        out[f"kernel/{name}/direct-lu/row"] = {
            "values": hexes(direct), "points": dump_diagnostics(diags),
        }
        # the transient's per-point regime (one sparse matvec per point)
        held = passage_module.BLOCKDIAG_MAX_BYTES
        passage_module.BLOCKDIAG_MAX_BYTES = 0
        try:
            run_forms(
                f"kernel/{name}/batch/per-point", kernel, alpha, target_states,
                PassageTimeOptions(), SPointPolicy(engine="batch"),
            )
        finally:
            passage_module.BLOCKDIAG_MAX_BYTES = held
    out.update(walk_scenarios(small.entry.kernel, sources, targets, grid))
    return out


def walk_scenarios(kernel, sources, targets, grid) -> dict:
    """The batch engine's passage walk on its three shapes: many windows
    entered from many sources (voting (8,3,2)'s sources and two states deep
    in its chain), a source that is a target, and a chain that is one strong
    component once its target is dropped (the high-fan-out kernel)."""
    targets = np.asarray(targets)
    many = source_weights(kernel, sorted({*sources, kernel.n_states // 2, kernel.n_states - 9}))
    inside = np.zeros(kernel.n_states)
    inside[[sources[0], targets[0]]] = 0.5
    fan_out = fan_out_kernel()
    one = np.zeros(fan_out.n_states)
    one[0] = 1.0
    cases = {
        "multi-source": (kernel, many, targets),
        "source-is-target": (kernel, inside, targets),
        "one-component": (fan_out, one, np.asarray([fan_out.n_states - 1])),
    }
    out = {}
    for name, (walked, alpha, target_states) in cases.items():
        values, diags = passage_transform_batch(
            walked, alpha, target_states, grid, policy=SPointPolicy(engine="batch")
        )
        out[f"kernel/walk/{name}"] = {"values": hexes(values), "points": dump_diagnostics(diags)}
    return out


# ------------------------------------------------------------------ explore
def sha256(array) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(f"{array.dtype.str}{array.shape}".encode() + array.tobytes()).hexdigest()


def explore_scenarios() -> dict:
    nets = {
        f"voting-spec{''.join(map(str, sizes))}": lambda sizes=sizes: load_model(
            voting_spec_text(VotingParameters(*sizes)), name="voting"
        )
        for sizes in ((8, 3, 2), (18, 6, 3), (50, 15, 4), (60, 25, 4))
    }
    nets["voting-net832"] = lambda: build_voting_net(VotingParameters(8, 3, 2))
    nets["web-server"] = web_server_net
    out = {}
    for label, factory in nets.items():
        space = explore(factory())
        out[f"explore/{label}"] = {
            "states": space.n_states,
            "edges": space.n_edges,
            "truncated": space.truncated,
            "markings": sha256(space.marking_matrix),
            **{
                column: sha256(getattr(space, column))
                for column in (
                    "edge_src", "edge_dst", "edge_prob", "edge_dist", "edge_trans",
                    "deadlock_states",
                )
            },
            "distributions": hashlib.sha256(
                "\n".join(map(repr, space.distributions)).encode()
            ).hexdigest(),
        }
    return out


# ------------------------------------------------------- against a parent
#: the largest relative move of any float a value-moving PR may make
MAX_RELATIVE_MOVE = 1e-9
#: inverted results.  An entry is sized against the largest inverted entry of
#: its scenario, not against itself: inversion turns a 1e-14 move of the
#: transforms into an absolute move of that order on every entry, whatever the
#: entry's own size (a far-tail density of -1e-9, pure inversion noise, included)
INVERTED = ("density", "cdf", "probability")


def _is_hex_float(leaf) -> bool:
    return isinstance(leaf, str) and leaf.lstrip("-").startswith("0x")


def _compare(field, ours, theirs, moves, faults, inverted_scale):
    """Walk two dumped values: float moves into ``moves[field]`` (largest
    relative one), anything else that differs into ``faults``."""
    if isinstance(ours, dict) and isinstance(theirs, dict) and set(ours) == set(theirs):
        for key in ours:
            _compare(field, ours[key], theirs[key], moves, faults, inverted_scale)
    elif _is_hex_float(ours) and _is_hex_float(theirs):
        _compare(field, [ours], [theirs], moves, faults, inverted_scale)
    elif isinstance(ours, list) and isinstance(theirs, list) and len(ours) == len(theirs):
        if not (ours and all(map(_is_hex_float, ours)) and all(map(_is_hex_float, theirs))):
            for x, y in zip(ours, theirs):
                _compare(field, x, y, moves, faults, inverted_scale)
            return
        a = np.asarray([float.fromhex(leaf) for leaf in ours])
        b = np.asarray([float.fromhex(leaf) for leaf in theirs])
        if field in ("transform", "values"):  # complex numbers, dumped as re, im
            a, b = a.view(complex), b.view(complex)
        if not np.array_equal(a, b):
            scale = inverted_scale if field in INVERTED else np.maximum(np.abs(a), np.abs(b))
            with np.errstate(invalid="ignore"):  # 0/0 where an entry is 0 on both sides
                move = float(np.nanmax(np.abs(a - b) / scale))
            moves[field] = max(moves.get(field, 0.0), move)
    elif ours != theirs:
        faults.append(f"{field}: {theirs!r} -> {ours!r}")


def against(dump: dict, parent: dict) -> int:
    """Print the classification of every scenario; the number of faults."""
    faults = [f"{label}: only in the parent's dump" for label in sorted(set(parent) - set(dump))]
    faults += [f"{label}: not in the parent's dump" for label in sorted(set(dump) - set(parent))]
    classes = {"identical": 0, "digest-only": 0, "values-moved": 0}
    largest: dict[str, float] = {}
    for label in sorted(set(dump) & set(parent)):
        ours, theirs = dict(dump[label]), dict(parent[label])
        digests_moved = [
            key for key in ("model", "job") if ours.pop(key, None) != theirs.pop(key, None)
        ]
        moves: dict[str, float] = {}
        scenario_faults: list[str] = []
        inverted_scale = max(
            (abs(float.fromhex(leaf)) for field in INVERTED for leaf in theirs.get(field, ())),
            default=1.0,
        )
        for field in sorted(set(ours) | set(theirs)):
            _compare(
                field, ours.get(field), theirs.get(field), moves, scenario_faults, inverted_scale
            )
        faults += [f"{label}: {fault}" for fault in scenario_faults]
        faults += [
            f"{label}: {field} moved {move:.2e} > {MAX_RELATIVE_MOVE:g}"
            for field, move in moves.items() if move > MAX_RELATIVE_MOVE
        ]
        kind = "values-moved" if moves else "digest-only" if digests_moved else "identical"
        classes[kind] += 1
        for field, move in moves.items():
            largest[field] = max(largest.get(field, 0.0), move)
        detail = "  ".join(f"{field} {move:.2e}" for field, move in sorted(moves.items()))
        moved = f"  [{'+'.join(digests_moved)} digest]" if digests_moved else ""
        print(f"{kind:13s} {label}{moved}  {detail}".rstrip())
    print("  ".join(f"{count} {kind}" for kind, count in classes.items()))
    print("largest relative move per field: " + (
        "  ".join(f"{field} {move:.2e}" for field, move in sorted(largest.items())) or "none"
    ))
    for fault in faults:
        print(f"FAULT {fault}")
    return len(faults)


def main(argv) -> int:
    if len(argv) not in (2, 4) or (len(argv) == 4 and argv[2] != "--against"):
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    started = time.perf_counter()
    dump = {**facade_scenarios(), **kernel_scenarios(), **explore_scenarios()}
    with open(argv[1], "w") as handle:
        json.dump(dump, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(dump)} scenarios, {time.perf_counter() - started:.1f} s -> {argv[1]}")
    if len(argv) == 4:
        with open(argv[3]) as handle:
            return 1 if against(dump, json.load(handle)) else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
