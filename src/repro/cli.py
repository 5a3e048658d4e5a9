"""Command-line interface: analyse a DNAmaca model without writing Python.

The paper's tool chain is driven by a textual model specification; this CLI
provides the same workflow::

    semimarkov info model.dnamaca
    semimarkov passage model.dnamaca --source "p1 == 18" --target "p2 >= 18" \
        --t-points 10 20 30 40 50 --cdf --quantile 0.99
    semimarkov transient model.dnamaca --source "p1 == 18" --target "p2 >= 5" \
        --t-points 5 10 20 50
    semimarkov simulate model.dnamaca --target "p2 >= 18" --replications 2000

Long-lived serving (models built once, transform values cached and coalesced
across queries — see :mod:`repro.service`)::

    semimarkov serve --port 8400 --checkpoint /var/lib/semimarkov
    semimarkov query register model.dnamaca
    semimarkov query passage model.dnamaca --source "p1 == 18" \
        --target "p2 >= 18" --t-points 10 20 50 --cdf
    semimarkov query stats

Every sub-command is a thin layer over the public analysis API
(:mod:`repro.api`): the model file becomes a :class:`~repro.api.Model`, the
requested measure becomes a lazy query, and the command's flags select the
execution engine — in-process for ``passage``/``transient``, the
checkpointing distributed pipeline for ``--workers``/``--checkpoint``, and
the remote engine (a running ``semimarkov serve``) for ``query ...``.

Source and target sets are marking predicates written in the same expression
language as the specification's ``\\condition`` clauses (place names,
constants, comparisons, ``&&`` / ``||``).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .api import ApiError, DistributedEngine, Model
from .core.results import RESULT_TYPES
from .dnamaca.expressions import ExpressionError, parse_overrides

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _overrides(args) -> dict[str, float]:
    """Parse repeatable ``--set NAME=VALUE`` flags via the shared helper."""
    try:
        return parse_overrides(getattr(args, "set", None))
    except ExpressionError as exc:
        raise SystemExit(str(exc)) from None


def _model(args) -> Model:
    """The (lazy) model referenced by the positional MODEL argument."""
    try:
        return Model.from_file(
            args.model, overrides=_overrides(args), max_states=args.max_states
        )
    except ApiError as exc:
        raise SystemExit(str(exc)) from None


def _query_model(args) -> Model:
    """Interpret a query's MODEL argument as a spec path or a digest."""
    overrides = _overrides(args)
    if Path(args.model).exists():
        return Model.from_file(
            args.model, overrides=overrides,
            max_states=getattr(args, "max_states", None),
        )
    if overrides:
        raise SystemExit(
            "--set needs the specification text; pass a spec file path, not a digest"
        )
    return Model.from_digest(args.model)


def _run(query, engine, **engine_options):
    """Execute a query, converting API errors into clean exit messages."""
    try:
        return query.run(engine, **engine_options)
    except ApiError as exc:
        raise SystemExit(str(exc)) from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(rows, header, args) -> None:
    """Print rows as an aligned table, JSON, or CSV (``None`` -> empty field).

    The CSV and JSON forms are machine-readable and keep full float
    precision; only the aligned table rounds for display.
    """
    if getattr(args, "csv", False):
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        return
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
        return
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_cell(v).rjust(w) for v, w in zip(row, widths)))


def _print_measure(result, args) -> None:
    """A measure result — local, remote or a finished job's — as its table
    (all-``None`` columns dropped) and its quantile / steady-state lines."""
    table, header = result.as_table(), result.columns
    keep = [0] + [
        i for i in range(1, len(header)) if any(row[i] is not None for row in table)
    ]
    _emit([[row[i] for i in keep] for row in table], [header[i] for i in keep], args)
    for q, t in sorted(getattr(result, "quantiles", {}).items()):
        print(f"quantile: P(T <= {t:.6g}) = {q}")
    if getattr(result, "steady_state", None) is not None:
        print(f"steady-state value: {result.steady_state:.6g}")


def _measure_query(model: Model, args, kind: str):
    """Configure a passage/transient query from the shared measure flags."""
    try:
        if kind == "passage":
            query = model.passage(args.source, args.target).density(args.t_points)
            if args.cdf:
                query = query.cdf()
            if getattr(args, "quantile", None) is not None:
                query = query.quantile(args.quantile)
        else:
            query = model.transient(args.source, args.target).probability(args.t_points)
        return (
            query.with_solver(args.solver)
            .with_inversion(args.inversion)
            .with_epsilon(args.epsilon)
        )
    except ApiError as exc:
        raise SystemExit(str(exc)) from None


def _start_trace(args) -> str | None:
    """Enable the process tracer when ``--trace OUT.json`` was given."""
    path = getattr(args, "trace", None)
    if path:
        from .obs import get_tracer

        get_tracer().enable()
    return path


def _finish_trace(path: str | None) -> None:
    """Write the Chrome/Perfetto trace-event file and reset the tracer."""
    if not path:
        return
    from .obs import get_tracer

    tracer = get_tracer()
    count = tracer.write_chrome_trace(path)
    tracer.disable()
    tracer.clear()
    print(f"# trace: {count} span(s) written to {path} "
          "(load in https://ui.perfetto.dev or chrome://tracing)",
          file=sys.stderr)


def _progress_reporter(args):
    """A stderr progress line for ``--progress``, else ``None``."""
    if not getattr(args, "progress", False):
        return None
    from .obs import ProgressReporter, stderr_renderer

    return ProgressReporter().subscribe(stderr_renderer())


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------


def _cmd_info(args) -> int:
    model = _model(args)
    try:
        entry = model.entry
    except ApiError as exc:
        raise SystemExit(str(exc)) from None
    graph, kernel, net = entry.graph, entry.kernel, entry.net
    usage = graph.transition_usage()
    matrix = graph.marking_array()
    print(f"model          : {net.name}")
    print(f"constants      : {entry.constants}")
    print(f"places         : {', '.join(net.places)}")
    print(f"transitions    : {', '.join(t.name for t in net.transitions)}")
    print(f"reachable states: {graph.n_states}{' (truncated)' if graph.truncated else ''}")
    print(f"state space    : {matrix.shape[0]} x {matrix.shape[1]} marking matrix "
          f"({matrix.nbytes / 1e6:.1f} MB), {graph.n_edges} edges (SoA)")
    print(f"kernel         : {kernel.n_transitions} transitions, "
          f"{kernel.n_distributions} distinct sojourn distributions")
    print(f"deadlocks      : {len(graph.deadlocks)}")
    print("edges per net transition:")
    for name, count in sorted(usage.items()):
        print(f"  {name:>12}: {count}")
    return 0


def _cmd_passage(args) -> int:
    model = _model(args)
    query = _measure_query(model, args, "passage")
    engine = DistributedEngine(
        workers=args.workers, checkpoint=args.checkpoint,
        progress=_progress_reporter(args),
    )
    trace_path = _start_trace(args)
    try:
        result = _run(query, engine)
    finally:
        engine.close()  # reaps the --workers pool
        if engine.progress is not None:
            engine.progress.finish()
        _finish_trace(trace_path)

    _print_measure(result, args)
    stats = result.statistics
    cached = stats.get("s_points_from_memory", 0) + stats.get("s_points_from_disk", 0)
    print(f"# s-points computed: {stats.get('s_points_computed', 0)} "
          f"(cache: {cached}), "
          f"evaluation {stats.get('evaluation_seconds', 0.0):.2f}s "
          f"via {stats.get('engine', 'inline')}",
          file=sys.stderr)
    _print_engine_stats(stats)
    return 0


def _cmd_transient(args) -> int:
    model = _model(args)
    query = _measure_query(model, args, "transient")
    trace_path = _start_trace(args)
    try:
        result = _run(query, "inline")
    finally:
        _finish_trace(trace_path)
    _print_measure(result, args)
    return 0


def _cmd_simulate(args) -> int:
    model = _model(args)
    try:
        query = model.simulate(
            args.target,
            replications=args.replications,
            seed=args.seed,
            t_points=args.t_points or None,
        )
    except ApiError as exc:
        raise SystemExit(str(exc)) from None
    result = _run(query, "inline")
    _emit(result.as_table(), ["quantile", "t"], args)
    print(f"mean: {result.mean():.6g}   std: {result.std():.6g}   "
          f"replications: {result.n_replications}")
    if result.t_points is not None:
        _emit([[float(t), float(p)] for t, p in zip(result.t_points, result.cdf)],
              ["t", "P(T<=t)"], args)
    return 0


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def _one_malloc_arena() -> None:
    """Keep every thread of this process on the malloc arenas it already has.

    The server answers each request on a new thread, and glibc hands a thread
    that starts while the previous one is still exiting an arena of its own.
    A cold solve leaves ~70 MB of freed temporaries in whichever arena it ran
    in, so the resident set after the same eight cold queries was anything
    from 207 to 300 MiB, decided by that race; on one arena it is 207 MiB
    every time.  The GIL already serialises the allocations, so nothing
    contends.  A no-op where the C library has no ``mallopt``.
    """
    import ctypes

    m_arena_max = -8  # M_ARENA_MAX in <malloc.h>
    try:
        ctypes.CDLL(None).mallopt(m_arena_max, 1)
    except (AttributeError, OSError):
        pass


def _cmd_serve(args) -> int:
    import logging

    from .service import AnalysisService, create_server

    _one_malloc_arena()

    # One structured line per request on the repro.service logger; the
    # handler writes to stderr so stdout stays clean for the banner.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
    service_logger = logging.getLogger("repro.service")
    service_logger.addHandler(handler)
    service_logger.setLevel(getattr(logging, args.log_level.upper()))

    from .jobs import TenantQuotas

    service = AnalysisService(
        checkpoint_dir=args.checkpoint,
        cache_points=args.cache_points,
        default_max_states=args.max_states,
        workers=args.workers,
        quotas=TenantQuotas(
            max_active_jobs=args.max_active_jobs,
            max_models=args.max_models,
            rate_per_second=args.rate,
            burst=args.burst,
        ),
        job_store=args.job_store,
        job_max_attempts=args.job_max_attempts,
    )
    overrides = _overrides(args)
    for path in args.preload or []:
        info = service.register_model(
            Path(path).read_text(), name=Path(path).stem,
            overrides=overrides or None,
        )
        print(f"preloaded {path}: model {info['model']} "
              f"({info['states']} states, {info['build_seconds']:.2f}s)")
    server = create_server(service, host=args.host, port=args.port, quiet=not args.verbose)
    host, port = server.server_address[:2]
    print(f"semimarkov analysis server listening on http://{host}:{port} "
          f"(checkpoint: {args.checkpoint or 'none'}, "
          f"jobs: {service.jobs.backend_name})", flush=True)

    # Graceful drain on SIGTERM/SIGINT: stop admitting mutations (503 +
    # Retry-After), park the in-flight job at an s-block boundary with its
    # completed blocks checkpointed, then stop the accept loop.  shutdown()
    # must not run on the signal-handler frame (it joins serve_forever), so
    # the drain runs on a helper thread; a second signal force-exits.
    import signal
    import threading

    drained = threading.Event()

    def _drain_and_stop() -> None:
        service.drain()
        server.shutdown()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        if drained.is_set():  # second signal: operator really means it
            raise SystemExit(1)
        drained.set()
        print(f"received {signal.Signals(signum).name}; draining",
              file=sys.stderr, flush=True)
        threading.Thread(
            target=_drain_and_stop, name="repro-drain", daemon=True
        ).start()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler converts SIGINT
        print("shutting down", file=sys.stderr)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()
        service.close()
        print("drained; all job state persisted", file=sys.stderr, flush=True)
    return 0


def _print_query_stats(statistics: dict) -> None:
    print(
        f"# s-points: {statistics.get('s_points_required', 0)} required, "
        f"{statistics.get('s_points_computed', 0)} computed, "
        f"{statistics.get('s_points_from_memory', 0)} memory, "
        f"{statistics.get('s_points_from_disk', 0)} disk, "
        f"{statistics.get('s_points_coalesced', 0)} coalesced",
        file=sys.stderr,
    )
    _print_engine_stats(statistics)


def _print_engine_stats(statistics: dict) -> None:
    """One stderr line naming the evaluator engine and per-block timings."""
    engine = statistics.get("evaluator_engine")
    if not engine:
        return
    blocks = statistics.get("solve_blocks") or []
    if blocks:
        seconds = sum(b.get("seconds", 0.0) for b in blocks)
        timings = ", ".join(
            f"{b.get('points', '?')}pt/{b.get('seconds', 0.0):.3f}s" for b in blocks
        )
        print(
            f"# evaluator: {engine} engine, {len(blocks)} block(s) "
            f"in {seconds:.3f}s [{timings}]",
            file=sys.stderr,
        )
        unconverged = sum(b.get("unconverged", 0) for b in blocks)
        if unconverged:
            print(
                f"# WARNING: {unconverged} s-point(s) returned truncated "
                "(iteration cap hit, no direct fallback on this kernel size)",
                file=sys.stderr,
            )
    else:
        print(f"# evaluator: {engine} engine", file=sys.stderr)
    workers = statistics.get("workers") or {}
    if workers:
        detail = ", ".join(
            f"{label}: {entry.get('blocks', 0)} blk/"
            f"{entry.get('points', 0)} pt/"
            f"{entry.get('busy_seconds', 0.0):.3f}s"
            for label, entry in sorted(workers.items())
        )
        print(
            f"# workers: {len(workers)} process(es) [{detail}]",
            file=sys.stderr,
        )


def _client(args):
    from .service import ServiceClient

    try:
        return ServiceClient(args.url, tenant=getattr(args, "tenant", None))
    except ValueError as exc:  # not an http:// URL
        raise SystemExit(str(exc)) from None


def _cmd_query_register(args) -> int:
    from .service import ServiceClientError

    override_map = _overrides(args)
    try:
        info = _client(args).register_model(
            Path(args.model).read_text(),
            name=args.name or Path(args.model).stem,
            overrides=override_map or None,
            max_states=args.max_states,
        )
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"model    : {info['model']} ({'built' if info['created'] else 'cached'})")
        print(f"name     : {info['name']}")
        print(f"states   : {info['states']}")
        print(f"build    : {info['build_seconds']:.3f}s")
    return 0


def _cmd_query_passage(args) -> int:
    model = _query_model(args)
    query = _measure_query(model, args, "passage")
    result = _run(query, "remote", url=args.url, tenant=args.tenant)
    _print_measure(result, args)
    _print_query_stats(result.statistics)
    return 0


def _cmd_query_transient(args) -> int:
    model = _query_model(args)
    query = _measure_query(model, args, "transient")
    result = _run(query, "remote", url=args.url, tenant=args.tenant)
    _print_measure(result, args)
    _print_query_stats(result.statistics)
    return 0


def _cmd_query_stats(args) -> int:
    from .service import ServiceClientError

    try:
        stats = _client(args).stats()
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    print(json.dumps(stats, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Async jobs
# ---------------------------------------------------------------------------


def _print_job(view: dict, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(view, indent=2))
        return
    progress = view.get("progress") or {}
    done = progress.get("points_done", 0)
    total = progress.get("points_total", 0)
    pct = f"{100.0 * done / total:.0f}%" if total else "-"
    line = f"state    : {view['state']}"
    if view.get("error"):
        line += f" ({view['error']})"
    print(f"job      : {view['job']} ({view['kind']})")
    print(line)
    print(f"model    : {view.get('model')}")
    print(f"tenant   : {view.get('tenant')}")
    print(f"progress : {done}/{total} s-points ({pct}), "
          f"{progress.get('blocks_done', 0)}/{progress.get('blocks_total', 0)} blocks, "
          f"attempt {view.get('attempts', 0)}")


def _cmd_query_jobs_submit(args) -> int:
    from .service import ServiceClientError

    query = _measure_query(_query_model(args), args, args.kind)
    try:
        view = _client(args).submit(args.kind, **query.to_wire())
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(view, indent=2))
    else:
        print(f"job {view['job']} {view['state']} "
              f"(follow with: semimarkov query jobs wait {view['job']})")
    return 0


def _cmd_query_jobs_status(args) -> int:
    from .service import ServiceClientError

    try:
        view = _client(args).job(args.job_id)
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    _print_job(view, args)
    return 0


def _cmd_query_jobs_wait(args) -> int:
    from .service import ServiceClientError

    client = _client(args)
    try:
        view = client.wait(args.job_id, timeout=args.timeout, interval=args.interval)
    except TimeoutError as exc:
        raise SystemExit(str(exc)) from None
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(view, indent=2))
    else:
        _print_job(view, args)
        if isinstance(view.get("result"), dict):
            _print_measure(RESULT_TYPES[view["kind"]].from_wire(view["result"]), args)
    return 0 if view.get("state") == "done" else 1


def _cmd_query_jobs_cancel(args) -> int:
    from .service import ServiceClientError

    try:
        view = _client(args).cancel(args.job_id)
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    _print_job(view, args)
    return 0


def _cmd_query_jobs_list(args) -> int:
    from .service import ServiceClientError

    try:
        listing = _client(args).jobs()
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    rows = []
    for view in listing.get("jobs", []):
        progress = view.get("progress") or {}
        total = progress.get("points_total", 0)
        done = progress.get("points_done", 0)
        rows.append([
            view["job"], view["kind"], view["model"], view["state"],
            f"{done}/{total}" if total else "",
        ])
    _emit(rows, ["job", "kind", "model", "state", "points"], args)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimarkov",
        description="Passage-time and transient analysis of DNAmaca semi-Markov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("model", help="path to the DNAmaca specification file")
        p.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="override a declared constant (repeatable)")
        p.add_argument("--max-states", type=int, default=None,
                       help="cap on the explored state-space size")
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    info = sub.add_parser("info", help="show model structure and state-space statistics")
    add_common(info)
    info.set_defaults(handler=_cmd_info)

    def add_measure_options(p):
        p.add_argument("--source", required=True, help="source-marking predicate expression")
        p.add_argument("--target", required=True, help="target-marking predicate expression")
        p.add_argument("--t-points", type=float, nargs="+", required=True,
                       help="time points to evaluate")
        p.add_argument("--solver", choices=["iterative", "direct"], default="iterative")
        p.add_argument("--inversion", choices=["euler", "laguerre"], default="euler")
        p.add_argument("--epsilon", type=float, default=1e-8,
                       help="truncation tolerance of the iterative sum")

    passage = sub.add_parser("passage", help="first-passage-time density / CDF / quantile")
    add_common(passage)
    add_measure_options(passage)
    passage.add_argument("--cdf", action="store_true", help="also invert the CDF")
    passage.add_argument("--quantile", type=float, default=None,
                         help="extract the given passage-time quantile")
    passage.add_argument("--workers", type=int, default=1,
                         help="worker processes for the s-point evaluations")
    passage.add_argument("--checkpoint", default=None,
                         help="directory for on-disk checkpointing of s-point results")
    passage.add_argument("--trace", metavar="FILE", default=None,
                         help="write a Chrome/Perfetto trace-event JSON file "
                              "covering explore, kernel build, plane export, "
                              "per-worker s-block solves and inversion")
    passage.add_argument("--progress", action="store_true",
                         help="render a live blocks/points/ETA line on stderr")
    passage.set_defaults(handler=_cmd_passage)

    transient = sub.add_parser("transient", help="transient state distribution")
    add_common(transient)
    add_measure_options(transient)
    transient.add_argument("--trace", metavar="FILE", default=None,
                           help="write a Chrome/Perfetto trace-event JSON file")
    transient.set_defaults(handler=_cmd_transient)

    simulate = sub.add_parser("simulate", help="Monte-Carlo passage-time estimation")
    add_common(simulate)
    simulate.add_argument("--target", required=True, help="target-marking predicate expression")
    simulate.add_argument("--replications", type=int, default=2000)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--t-points", type=float, nargs="*", default=None,
                          help="optionally report the empirical CDF at these times")
    simulate.set_defaults(handler=_cmd_simulate)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived analysis server (model registry, coalescing "
             "scheduler, tiered result cache, HTTP JSON API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8400,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--checkpoint", default=None,
                       help="directory for the on-disk result-cache tier")
    serve.add_argument("--cache-points", type=int, default=500_000,
                       help="in-memory cache bound (total s-points)")
    serve.add_argument("--max-states", type=int, default=None,
                       help="default state-space cap for registered models")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes sharing the kernel plane; "
                            "1 evaluates in-process")
    serve.add_argument("--preload", action="append", metavar="MODEL",
                       help="register this spec file at startup (repeatable)")
    serve.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="constant overrides applied to preloaded models")
    serve.add_argument("--job-store", default="auto",
                       choices=["auto", "memory", "sqlite"],
                       help="async-job record backend: sqlite persists under "
                            "--checkpoint; auto picks sqlite when a "
                            "checkpoint directory is configured")
    serve.add_argument("--max-active-jobs", type=int, default=64,
                       help="per-tenant cap on queued+running async jobs")
    serve.add_argument("--job-max-attempts", type=int, default=5,
                       help="executions a job may burn before restart "
                            "recovery fails it as a crash loop instead of "
                            "re-queueing it")
    serve.add_argument("--max-models", type=int, default=None,
                       help="per-tenant cap on registered model digests")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant sustained requests/second "
                            "(token-bucket; default unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst size (default 2x rate)")
    serve.add_argument("--verbose", action="store_true",
                       help="also emit the stdlib per-request log lines")
    serve.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="threshold for the structured request log on "
                            "stderr (default: info)")
    serve.set_defaults(handler=_cmd_serve)

    query = sub.add_parser("query", help="query a running analysis server")
    query.add_argument("--url", default="http://127.0.0.1:8400",
                       help="base URL of the server")
    query.add_argument("--tenant", default=None,
                       help="tenant name sent as the X-Repro-Tenant header")
    qsub = query.add_subparsers(dest="query_command", required=True)

    q_register = qsub.add_parser("register", help="register a model spec with the server")
    q_register.add_argument("model", help="path to the DNAmaca specification file")
    q_register.add_argument("--name", default=None)
    q_register.add_argument("--set", action="append", metavar="NAME=VALUE")
    q_register.add_argument("--max-states", type=int, default=None)
    q_register.add_argument("--json", action="store_true")
    q_register.set_defaults(handler=_cmd_query_register)

    def add_query_measure(p):
        p.add_argument("model", help="model digest, or path to a spec file")
        p.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="constant overrides (spec-file form only)")
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--t-points", type=float, nargs="+", required=True)
        p.add_argument("--solver", choices=["iterative", "direct"], default="iterative")
        p.add_argument("--inversion", choices=["euler", "laguerre"], default="euler")
        p.add_argument("--epsilon", type=float, default=1e-8)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")

    q_passage = qsub.add_parser("passage", help="passage-time query over HTTP")
    add_query_measure(q_passage)
    q_passage.add_argument("--cdf", action="store_true")
    q_passage.add_argument("--quantile", type=float, default=None)
    q_passage.set_defaults(handler=_cmd_query_passage)

    q_transient = qsub.add_parser("transient", help="transient query over HTTP")
    add_query_measure(q_transient)
    q_transient.set_defaults(handler=_cmd_query_transient)

    q_stats = qsub.add_parser("stats", help="print the server's /v1/stats counters")
    q_stats.set_defaults(handler=_cmd_query_stats)

    q_jobs = qsub.add_parser(
        "jobs", help="submit and manage async jobs (POST ... \"async\": true)"
    )
    jsub = q_jobs.add_subparsers(dest="jobs_command", required=True)

    j_submit = jsub.add_parser("submit", help="enqueue a query; returns a job id")
    j_submit.add_argument("kind", choices=["passage", "transient"],
                          help="which measure to compute")
    add_query_measure(j_submit)
    j_submit.add_argument("--max-states", type=int, default=None)
    j_submit.add_argument("--cdf", action="store_true",
                          help="passage only: also invert the CDF")
    j_submit.add_argument("--quantile", type=float, default=None,
                          help="passage only: extract this quantile")
    j_submit.set_defaults(handler=_cmd_query_jobs_submit)

    j_status = jsub.add_parser("status", help="one job's state and progress")
    j_status.add_argument("job_id")
    j_status.add_argument("--json", action="store_true")
    j_status.set_defaults(handler=_cmd_query_jobs_status)

    j_wait = jsub.add_parser("wait", help="poll until the job finishes, then "
                                          "print its result")
    j_wait.add_argument("job_id")
    j_wait.add_argument("--timeout", type=float, default=None,
                        help="give up after this many seconds")
    j_wait.add_argument("--interval", type=float, default=0.25,
                        help="poll interval in seconds")
    j_wait.add_argument("--json", action="store_true")
    j_wait.add_argument("--csv", action="store_true")
    j_wait.set_defaults(handler=_cmd_query_jobs_wait)

    j_cancel = jsub.add_parser("cancel", help="cancel a queued or running job")
    j_cancel.add_argument("job_id")
    j_cancel.add_argument("--json", action="store_true")
    j_cancel.set_defaults(handler=_cmd_query_jobs_cancel)

    j_list = jsub.add_parser("list", help="this tenant's jobs, newest first")
    j_list.add_argument("--json", action="store_true")
    j_list.add_argument("--csv", action="store_true")
    j_list.set_defaults(handler=_cmd_query_jobs_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
