"""The design, pinned: one loop turns plan points into stored values.

Within ``src/repro`` only the executors (``distributed/backends.py``) call a
job's batch evaluation, and only the two modules that own a key format call
the scalar canonicaliser — every other surface reaches both through
``CoalescingScheduler.evaluate`` and the keys its ``QueryPlan`` carries.  One
layer down, every batched solve is one block loop around one routed block
solve around one driver (``smp/passage.py``) — and there is no other solve: a
single s-point is a block of one, the scalar implementation an oracle under
``tests/reference``.  One more down, the edges have
one image — ``SMPKernel.csr`` — that every solver, the simulator and the
content digest read and a plane file shares; a kernel keeps them in no other
order, its embedded chain has one stationary solver, and every real system
at ``s = 0`` one solve.  Upstream of the kernel there is one road from a net to it: one
explorer into one ``StateSpace`` (vanishing markings kept, no reduction pass),
one edge merge (``SMPKernel.from_columns``), and the net layer imports nothing
above it.  A new call site outside these files is a second path growing back.
"""
from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.distributions import Exponential
from repro.smp import SMPBuilder, SPointPolicy

SRC = Path(repro.__file__).parent
TESTS = Path(__file__).parent


def _call_sites(*names: str) -> dict[str, int]:
    """``{relative path: count}`` of calls in ``src/repro`` to a function or
    method called one of ``names``."""
    sites: dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        count = 0
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                count += name in names
        if count:
            sites[path.relative_to(SRC).as_posix()] = count
    return sites


def _callers(*names: str) -> list[str]:
    """``path:function`` of the outermost function around each call in
    ``src/repro`` to a function or method called one of ``names``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node
            for parent in (tree, *[c for c in tree.body if isinstance(c, ast.ClassDef)])
            for node in parent.body
            if isinstance(node, ast.FunctionDef)
        ]
        found += [
            f"{path.relative_to(SRC).as_posix()}:{function.name}"
            for function in functions
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names
        ]
    return found


def test_only_the_executors_evaluate_batches():
    sites = _call_sites("evaluate_batch", "evaluate_many")
    # core/jobs.py: evaluate_many is defined there as a wrapper of evaluate_batch
    assert sites == {"core/jobs.py": 1, "distributed/backends.py": 2}
    # the solver classes reach their job's values through their scheduler —
    # a single transform value included — and in no other way
    solvers = SRC / "core" / "solvers.py"
    evaluations = [
        ast.unparse(node.func)
        for node in _nodes(solvers, ast.Call)
        if getattr(node.func, "attr", "").startswith("evaluate")
    ]
    assert evaluations == ["self._scheduler.evaluate"]
    assert _call_sites("gather")["core/solvers.py"] == 1


def test_one_implementation_of_the_per_point_algorithm():
    """The block solve is the only implementation in ``src/``: the scalar
    cone — its LST fill, its ``U'``, its row and column loops, its transient
    assembly, its LU assembly and the polynomial-fit moments built on it —
    lives in ``tests/reference`` as oracles, and a single s-point is a block
    of one."""
    from repro.core.jobs import PassageTimeJob, TransformJob, TransientJob
    from repro.core.solvers import PassageTimeSolver
    from repro.smp import SMPKernel, UEvaluator

    cone = {
        "passage_transform", "passage_transform_vector", "transient_transform",
        "passage_transform_direct", "sojourn_lsts", "lst_moments", "mean_from_lst",
        "variance_from_lst",
    }
    defined, exported, imported = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        defined += [
            f"{where}:{node.name}" for node in _nodes(path, ast.FunctionDef) if node.name in cone
        ]
        exported += [
            f"{where}:{node.value}"
            for assign in _nodes(path, ast.Assign)
            if "__all__" in [getattr(target, "id", None) for target in assign.targets]
            for node in ast.walk(assign.value)
            if isinstance(node, ast.Constant) and node.value in cone
        ]
        imported += [
            f"{where}:{module}"
            for node in _nodes(path, ast.Import, ast.ImportFrom)
            for module in (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            if module.split(".")[0] in ("tests", "benchmarks")
        ]
    assert not defined and not exported
    assert not imported  # an oracle is never a dependency of what it checks
    assert not (SRC / "distributions" / "moments.py").exists()

    for job in (TransformJob, PassageTimeJob, TransientJob):
        assert not hasattr(job, "evaluate")
    for name in ("u", "u_prime", "sojourn_lst", "_u_data", "_matrix_from_data"):
        assert not hasattr(UEvaluator, name), name
    assert not hasattr(SMPKernel, "u_matrix")
    scalar_s = [
        name for name, method in inspect.getmembers(UEvaluator, inspect.isfunction)
        if "s" in inspect.signature(method).parameters
    ]
    assert not scalar_s

    # a complete sparse LU is the complex routed points' alone: one call, in
    # _factor, whose callers are the passage's and the transient's direct
    # batch solves
    assert _call_sites("splu", "spsolve") == {"smp/linear.py": 1}
    assert _callers("splu", "spsolve") == ["smp/linear.py:_factor"]
    assert _callers("_factor") == [
        "smp/linear.py:passage_transform_direct_batch",
        "smp/linear.py:transient_transform_direct_batch",
    ]
    # one moments code, called from one place, with nothing to select
    assert _call_sites("passage_moments") == {"core/solvers.py": 1}
    assert not _call_sites("polyfit", "polyder")
    assert list(inspect.signature(PassageTimeSolver.moments).parameters) == ["self", "order"]
    (moments,) = [
        node for node in _nodes(SRC / "core" / "solvers.py", ast.FunctionDef)
        if node.name == "moments"
    ]
    assert not [node for node in ast.walk(moments) if isinstance(node, (ast.If, ast.IfExp))]


def test_one_worker_pool_per_backend_and_workers_that_know_no_job():
    """The pool is a property of the backend: one function constructs an
    executor of processes, and what a worker is born with names no job and
    no plane — those arrive with the blocks."""
    backends = SRC / "distributed" / "backends.py"
    constructors = [
        (path.relative_to(SRC).as_posix(), function.name)
        for path in sorted(SRC.rglob("*.py"))
        for function in _nodes(path, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "ProcessPoolExecutor" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )
    ]
    assert constructors == [("distributed/backends.py", "_keep")]
    (init,) = [
        function for function in _nodes(backends, ast.FunctionDef)
        if function.name == "_block_worker_init"
    ]
    assert ast.unparse(init.args) == ""
    (keep,) = [
        function for function in _nodes(backends, ast.FunctionDef)
        if function.name == "_keep"
    ]
    assert "initargs" not in ast.unparse(keep)


def test_the_executor_alone_sizes_blocks():
    """A block's size is decided where it is cut: the executors ask the
    policy (``dispatch_block_points``) for the points they are handed, so a
    job and a synchronous query over the same leftovers solve the same
    blocks."""
    assert _call_sites("dispatch_block_points") == {"distributed/backends.py": 1}


def test_one_rule_cuts_a_grid_into_blocks():
    """``SBlockQueue.from_points`` (round-robin, ``ceil(n / size)`` blocks) is
    the only place a grid is cut into blocks: both executors cut through it,
    nothing else builds an :class:`SBlock`, and no layer from the executors
    up slices a grid by a block size or a stride."""
    assert _callers("from_points") == ["distributed/backends.py:evaluate"] * 2
    assert _callers("SBlock") == ["distributed/queue.py:from_points"]
    cuts = []
    for layer in ("distributed", "service", "jobs", "api", "core"):
        for path in sorted((SRC / layer).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                stepped_range = (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "range"
                    and len(node.args) == 3
                )
                if stepped_range or (isinstance(node, ast.Slice) and node.step is not None):
                    cuts.append(f"{path.relative_to(SRC).as_posix()}:{ast.unparse(node)}")
    assert cuts == ["distributed/queue.py:index::n_blocks"]


def test_scalar_canonicalisation_stays_with_the_key_formats():
    sites = _call_sites("canonical_s")
    assert set(sites) <= {"laplace/inverter.py", "distributed/checkpoint.py"}
    assert sites["distributed/checkpoint.py"] == 1


def test_one_quantile_refiner():
    assert _call_sites("brentq") == {"api/measures.py": 1}


def test_the_deleted_surface_stays_deleted():
    assert not (SRC / "distributed" / "pipeline.py").exists()
    assert not (SRC / "distributed" / "simcluster.py").exists()
    assert not (SRC / "petri" / "vanishing.py").exists()
    assert not (SRC / "petri" / "analysis.py").exists()
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    for name in (
        "DistributedPipeline", "PipelineStatistics", "SPointWorkQueue",
        "WorkItem", "supports_blocks", "supports_progress", "_evaluate=",
        "_run_state", "record_timings", "task_durations", "_DIRECT_SOLVE_COST",
        "last_wall_clock", "SimulatedCluster", "scalability_table",
        "_BatchLRU", "row_abs_sums", "eliminate_vanishing",
        "is_vanishing_distribution", "passage_solver", "transient_solver",
        "marking_states",
    ):
        assert name not in source, name


def test_the_table2_timing_model_is_not_in_the_product():
    """Table 2's cluster lives next to its benchmark: ``repro.distributed``
    exports executors and the checkpoint store only, the serial executor has
    no options, and a job's batch evaluation returns its values and nothing
    for a timing model to read."""
    import repro.distributed

    assert sorted(repro.distributed.__all__) == sorted([
        "SBlock", "SBlockQueue", "CheckpointStore", "Backend", "PoisonBlockError",
        "SerialBackend", "MultiprocessingBackend",
    ])

    (serial,) = [
        node for node in _nodes(SRC / "distributed" / "backends.py", ast.ClassDef)
        if node.name == "SerialBackend"
    ]
    for init in [n for n in serial.body if getattr(n, "name", None) == "__init__"]:
        arguments = init.args
        assert [a.arg for a in arguments.posonlyargs + arguments.args] == ["self"]
        assert not (arguments.kwonlyargs or arguments.vararg or arguments.kwarg)

    batches = [
        node for node in _nodes(SRC / "core" / "jobs.py", ast.FunctionDef)
        if node.name in ("evaluate_batch", "_batch")
    ]
    assert len(batches) == 4
    assert {ast.unparse(node.returns) for node in batches} == {"np.ndarray"}


def test_one_measure_wire_format():
    """The request is the query object, the reply the result object, and the
    recipe between them is written once — on every surface."""
    # (core/results.py builds them too, as cls(...) in from_wire)
    assert _call_sites("PassageTimeResult", "TransientResult") == {"api/measures.py": 2}
    assert _call_sites("brentq") == {"api/measures.py": 1}

    # as dict keys, the wire's optional extras are spelled by the two wire
    # modules only
    def keys(path):
        for node in _nodes(path, ast.Dict, ast.Subscript, ast.Call):
            if isinstance(node, ast.Dict):
                yield from node.keys
            elif isinstance(node, ast.Subscript):
                yield node.slice
            elif getattr(node.func, "attr", None) in ("get", "pop", "setdefault"):
                yield from node.args[:1]

    spelled = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for key in keys(path)
        if getattr(key, "value", None)
        in ("include_cdf", "include_steady_state", "steady_state")
    }
    assert spelled <= {"api/queries.py", "core/results.py"}
    assert "core/results.py" in spelled

    source = {path: path.read_text() for path in SRC.rglob("*.py")}
    for name in (
        "measure_kwargs", "_MEASURE_FIELDS", "_measure_body", "_measure_payload",
        "_refine_quantile", "_as_t_points", "_print_job_result", "_as_grid",
    ):
        assert not [path for path, text in source.items() if name in text], name
    # one t-grid check and one quantile-range check on the query path
    for message, home in (
        ("t-points must be finite", "api/plan.py"),
        ("quantile must lie strictly", "api/queries.py"),
    ):
        homes = [p.relative_to(SRC).as_posix() for p, text in source.items() if message in text]
        assert homes == [home], message

    # no surface re-lists the request's fields as a signature
    surfaces = [
        *sorted((SRC / "service").glob("*.py")), SRC / "cli.py", SRC / "api" / "engines.py",
    ]
    relisted = [
        f"{path.name}:{node.name}"
        for path in surfaces
        for node in _nodes(path, ast.FunctionDef)
        if {"inversion", "epsilon"} <= {a.arg for a in (*node.args.args, *node.args.kwonlyargs)}
    ]
    assert not relisted

    # the api layer's errors become HTTP statuses in exactly one try
    mapping = [
        ast.unparse(node)
        for node in _nodes(SRC / "service" / "service.py", ast.Try)
        if re.search(r"except \(?[\w., ]*(PlanError|PredicateError)", ast.unparse(node))
    ]
    assert len(mapping) == 1
    assert "except PlanError" in mapping[0] and "PredicateError" in mapping[0]


# --- one layer down: one routed block solve in smp/ -------------------------


def test_one_routed_block_solve():
    """One scaffold, one block function, one driver: each decision of a block
    solve (time it, route it, solve it directly) is written exactly once."""
    assert _call_sites("route_direct") == {"smp/passage.py": 1}
    assert _call_sites("passage_transform_direct_batch") == {"smp/passage.py": 1}
    assert _call_sites("transient_transform_direct_batch") == {"smp/passage.py": 1}
    assert _call_sites("_drive") == {"smp/passage.py": 1}
    # the transient is the same grid solve with another form
    assert _call_sites("_form_batch") == {"smp/passage.py": 1, "smp/transient.py": 1}
    assert _call_sites("_solve_block") == {"smp/passage.py": 1}
    assert _call_sites("_block_loop") == {"smp/passage.py": 1}
    assert _call_sites("_note_block") == {"smp/passage.py": 1}
    clocks = _call_sites("perf_counter")
    timed = ("smp/passage.py", "smp/transient.py", "core/jobs.py")
    assert sum(clocks.get(path, 0) for path in timed) <= 2


def test_the_engine_is_decided_once_per_kernel():
    assert sum(_call_sites("resolve_engine").values()) <= 3
    for sizing in (SPointPolicy.block_points, SPointPolicy.dispatch_block_points):
        assert "engine" not in inspect.signature(sizing).parameters


def test_policy_knobs_earn_their_keep():
    assert len(dataclasses.fields(SPointPolicy)) == 7
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    for name in (
        "_passage_block", "_vector_block", "_drive_row", "_drive_col",
        "factored_density_ratio", "factored_max_distributions",
        "blockdiag_max_bytes", "direct_max_states", "chunk_size",
    ):
        assert name not in source, name


def test_the_block_solve_does_not_copy():
    """One block-diagonal image per kernel, ``U'`` written once, shrink by
    view: the copying paths stay deleted and the protocol has one spelling."""
    from repro.smp.factored import FactoredRowOperator
    from repro.smp.passage import _BatchRowOperator

    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for name in ("block_diag_matrix", "_csc_structure", "_ensure_operator", "pos_map"):
        assert not [path for path, text in sources.items() if name in text], name
    methods = [
        node.name
        for path in sources
        for node in _nodes(path, ast.FunctionDef)
        if node.name in ("shrink", "narrow")
    ]
    # the two operators, one per engine, each slicing its own state
    assert methods == ["narrow"] * 2
    for operator in (_BatchRowOperator, FactoredRowOperator):
        assert callable(operator.narrow) and not hasattr(operator, "shrink")
        assert not hasattr(operator, "finish")
    assert _call_sites("narrow") == {"smp/passage.py": 1}  # the driver's
    assert _call_sites("block_diag_structure") == {"smp/passage.py": 1}

    # the block's one U grid is written in run order and read by views only:
    # no subscript of it gathers, and M is the grid, zeroed in place
    passage = SRC / "smp" / "passage.py"
    grids = ("u_data", "up_data", "grid", "self._grid", "self._data", "data")
    reads = [
        node for node in _nodes(passage, ast.Subscript)
        if ast.unparse(node.value) in grids and isinstance(node.ctx, ast.Load)
    ]
    assert reads and all(isinstance(node.slice, ast.Slice) for node in reads), [
        ast.unparse(node) for node in reads if not isinstance(node.slice, ast.Slice)
    ]
    writes = [
        ast.unparse(node) for node in _nodes(passage, ast.Subscript)
        if ast.unparse(node.value) in grids and isinstance(node.ctx, ast.Store)
    ]
    assert writes == ["self._grid[:, self.evaluator.row_entries(np.flatnonzero(self._absorbing))]"]
    (block,) = [
        node for node in _nodes(passage, ast.FunctionDef) if node.name == "_solve_block"
    ]
    names = {node.id for node in ast.walk(block) if isinstance(node, ast.Name)}
    assert "up_data" not in names and "u_data" not in names
    assert _call_sites("fill_u_data") == {"smp/kernel.py": 1, "smp/passage.py": 2}


def test_one_matrix_per_block_and_scipys_private_kernels_in_two_places():
    """The batch operator builds no scipy matrix: the block-diagonal product
    and a point advanced on its own are both one call of scipy's C kernel on
    prefix views of the block's data and the kernel's one structure, not a
    per-point matrix over the kernel's adjacency.
    ``scipy.sparse._sparsetools`` is private, so its users are pinned with
    the kernels they call."""
    passage = SRC / "smp" / "passage.py"
    tree = ast.parse(passage.read_text())
    builds = [
        ast.unparse(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and re.fullmatch(r"(self\.matrix|(sparse\.)?cs[rc]_(matrix|array))", ast.unparse(node.func))
    ]
    assert builds == []
    imports = [ast.unparse(node) for node in _nodes(passage, ast.Import, ast.ImportFrom)]
    assert [line for line in imports if "scipy" in line] == [
        "from scipy.sparse import _sparsetools"
    ]
    assert "_per_point" not in passage.read_text()
    assert "smp/passage.py" not in _call_sites("adjacency")

    users = {}
    for path in sorted(SRC.rglob("*.py")):
        imports = _nodes(path, ast.Import, ast.ImportFrom)
        if any("_sparsetools" in ast.unparse(node) for node in imports):
            users[path.relative_to(SRC).as_posix()] = sorted({
                node.attr for node in _nodes(path, ast.Attribute)
                if getattr(node.value, "id", None) == "_sparsetools"
            })
    assert users == {
        "smp/factored.py": ["csr_matvecs"],
        "smp/passage.py": ["csc_matvec"],
    }


def test_the_column_form_stays_deleted():
    """The transient is one row iteration, so nothing in ``src/`` runs the
    column form any more: not its operators, its product, its entry point,
    a per-target loop or a ``vector`` block size."""
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for name in (
            "csr_matvec", "_BatchColOperator", "FactoredColOperator",
            "matrix_vec_batch", "passage_transform_vector_batch",
        ):
            # csr_matvecs, the factored engine's SpMM, is another kernel
            assert not re.search(rf"\b{name}\b", text), (path, name)
    transient = SRC / "smp" / "transient.py"
    assert not _nodes(transient, ast.For, ast.AsyncFor, ast.comprehension, ast.While)
    for name, method in inspect.getmembers(SPointPolicy, inspect.isfunction):
        assert "vector" not in inspect.signature(method).parameters, name


# --- one more down: one kernel image ----------------------------------------


def _nodes(path: Path, *kinds):
    return [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, kinds)]


def _two_state_kernel():
    builder = SMPBuilder()
    builder.add_transition("a", "b", 1.0, Exponential(1.0))
    builder.add_transition("b", "a", 1.0, Exponential(2.0))
    return builder.build()


def test_the_solvers_read_the_kernels_image():
    """Nothing reaches for an evaluator-private projection of the edges: the
    arrays have one name, ``kernel.csr.*``, in ``src/`` and in the tests."""
    private = re.compile(r"_csr_\w+|_indptr|_indices")
    reaches = {
        path.as_posix(): node.attr
        for root in (SRC, TESTS)
        for path in sorted(root.rglob("*.py"))
        if path != SRC / "smp" / "kernel.py"
        for node in _nodes(path, ast.Attribute)
        if private.fullmatch(node.attr)
    }
    assert not reaches


def test_the_plane_goes_through_public_names():
    evaluator = _two_state_kernel().evaluator()
    private = {
        name
        for obj in (evaluator, evaluator.factored())
        for name in (*vars(obj), *dir(type(obj)))
        if name.startswith("_") and not name.startswith("__")
    }
    assert {"_factored", "_row_pair_cache"} <= private
    plane = SRC / "smp" / "plane.py"
    named = {
        getattr(node, "attr", None) or node.value
        for node in _nodes(plane, ast.Attribute, ast.Constant)
    }
    assert not private & named


def test_one_way_to_share_a_kernel():
    """A plane is a file; one function writes it."""
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for name in (
        "_from_parts", "_coo_to_csr", "_plane_cache", "shared_memory", "resource_tracker",
    ):
        assert not [path for path, text in sources.items() if name in text], name
    writers = {}
    for path in sources:
        nodes = _nodes(path, ast.arg, ast.keyword, ast.Attribute)
        assert "backing" not in [getattr(node, "arg", None) for node in nodes], path
        writes = sum(getattr(node, "attr", None) == "ACCESS_WRITE" for node in nodes)
        if writes:
            writers[path.relative_to(SRC).as_posix()] = writes
    assert writers == {"smp/plane.py": 1}


# --- one digest epoch: one edge order, one stationary solver ---------------


def test_a_kernel_holds_one_edge_order():
    """The columns a kernel is handed are sorted into ``csr`` and let go: no
    second copy on the object, no re-sort in the simulator."""
    stored = {
        target.attr
        for node in _nodes(SRC / "smp" / "kernel.py", ast.Assign, ast.AnnAssign)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
    }
    assert "csr" in stored
    assert not stored & {"src", "dst", "probs", "dist_index"}
    (sampler,) = [
        node for node in _nodes(SRC / "simulation" / "smp_sim.py", ast.ClassDef)
        if node.name == "TrajectorySampler"
    ]
    assert "argsort" not in ast.unparse(sampler)
    kernel = _two_state_kernel()
    assert not [name for name in ("src", "dst", "probs", "dist_index") if hasattr(kernel, name)]


def test_one_stationary_solver_and_no_way_to_name_another():
    embedded = (SRC / "smp" / "embedded.py").read_text()
    for name in ("_solve_direct", "_solve_power", "2000", "2_000", "max_iterations"):
        assert name not in embedded, name
    knobs = [
        f"{path.relative_to(SRC).as_posix()}:{function.name}"
        for package in ("smp", "simulation")
        for path in sorted((SRC / package).glob("*.py"))
        for function in _nodes(path, ast.FunctionDef)
        for arg in (*function.args.args, *function.args.kwonlyargs)
        if arg.arg == "method"
    ]
    assert not knobs
    (solver,) = [
        node for node in _nodes(SRC / "smp" / "embedded.py", ast.FunctionDef)
        if node.name == "dtmc_steady_state"
    ]
    assert [arg.arg for arg in (*solver.args.args, *solver.args.kwonlyargs)] == ["P"]


def test_one_real_solve_at_s_zero():
    """The stationary vector and the moments solve their real systems through
    one function: the incomplete LU and GMRES are each called there and
    nowhere else, and the import runs one way, ``embedded -> linear``."""
    assert _call_sites("spilu") == {"smp/linear.py": 1}
    assert _call_sites("gmres") == {"smp/linear.py": 1}
    assert _callers("spilu") == _callers("gmres") == ["smp/linear.py:_real_solver"]
    assert _callers("_real_solver") == [
        "smp/embedded.py:dtmc_steady_state", "smp/linear.py:passage_moments",
    ]
    assert "splinalg" not in (SRC / "smp" / "embedded.py").read_text()
    imported = {
        node.module for node in _nodes(SRC / "smp" / "linear.py", ast.ImportFrom)
    }
    assert "embedded" not in imported and "passage" not in imported


def test_one_digest_epoch_read_by_the_kernel_digest_only():
    mentions = {
        path.relative_to(SRC).as_posix(): text.count("DIGEST_EPOCH")
        for path in SRC.rglob("*.py")
        if "DIGEST_EPOCH" in (text := path.read_text())
    }
    assert list(mentions) == ["smp/kernel.py"]
    kernel = SRC / "smp" / "kernel.py"
    definitions = [
        node for node in _nodes(kernel, ast.Assign)
        if "DIGEST_EPOCH" in [getattr(target, "id", None) for target in node.targets]
    ]
    assert len(definitions) == 1
    readers = {
        function.name
        for function in _nodes(kernel, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "DIGEST_EPOCH"
    }
    assert readers == {"kernel_content_digest"}


# --- upstream of the kernel: one road from a net to it ----------------------


def test_one_explored_model_and_one_edge_merge():
    """Counts, PR 18 → 19: explored-model representations 2 → 1, ``isinstance``
    forks on the representation 3 → 0, vanishing passes 2 → 1, parallel-edge
    merges 2 → 1, shipped explorers 2 → 1."""
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for name in (
        "ReachabilityGraph", "to_reachability_graph", "_vanishing_states", "_as_graph",
    ):
        assert not [path for path, text in sources.items() if name in text], name
    forks = [
        path.as_posix()
        for path in sorted((SRC / "petri").glob("*.py"))
        for node in _nodes(path, ast.Call)
        if getattr(node.func, "id", None) == "isinstance"
        and "StateSpace" in ast.unparse(node.args[1])
    ]
    assert not forks
    # the reference explorer is an oracle (tests, scripts/bench_statespace.py),
    # not a shipped path: no module imports it and no package re-exports it
    importers = [
        path.relative_to(SRC).as_posix()
        for path in sources
        for node in _nodes(path, ast.alias, ast.Attribute, ast.Name)
        if "explore_reference" in (
            getattr(node, "name", None), getattr(node, "attr", None), getattr(node, "id", None),
        )
    ]
    assert not importers
    assert not hasattr(repro, "explore_reference")
    assert not hasattr(repro.petri, "explore_reference")
    assert repro.petri.explore is repro.petri.explore_vectorized is repro.explore
    assert repro.build_kernel is repro.petri.build_kernel
    # parallel edges become a Mixture at one site; the builder constructs none
    mixtures = _call_sites("Mixture")
    assert {
        path: n for path, n in mixtures.items() if path.startswith(("smp/", "petri/"))
    } == {"smp/kernel.py": 1}
    assert _call_sites("from_columns") == {"petri/statespace.py": 1, "smp/builder.py": 1}


def test_one_gather_per_wave():
    """``explore`` fires every (state, transition) pair of a wave at once:
    ``np.nonzero`` already lists them in stream order, so nothing re-sorts
    them (no ``lexsort``), no per-transition edge fragments are collected in
    a loop and stacked, and the successor rows are packed once."""
    path = SRC / "petri" / "statespace.py"
    assert "lexsort" not in path.read_text()
    explore = next(
        node for node in _nodes(path, ast.FunctionDef) if node.name == "explore"
    )
    calls = [node for node in ast.walk(explore) if isinstance(node, ast.Call)]
    assert sum(getattr(node.func, "attr", None) == "pack" for node in calls) == 1
    stacked = [
        ast.unparse(node)
        for loop in ast.walk(explore) if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("append", "extend", "concatenate", "vstack")
    ]
    assert not stacked
    assert not [
        node for node in calls
        if getattr(node.func, "attr", None) in ("concatenate", "vstack")
        and getattr(node.func.value, "id", None) == "np"
    ]


# --- around the loop: one HTTP transport -------------------------------------


def test_one_kept_alive_transport():
    """The client speaks over its per-thread ``http.client`` connections and
    nothing else, and the server answers them with Nagle's algorithm off."""
    client = SRC / "service" / "client.py"
    imported = {
        alias.name for node in _nodes(client, ast.Import) for alias in node.names
    } | {node.module for node in _nodes(client, ast.ImportFrom)}
    assert "urllib.request" not in imported
    assert not any(name and name.startswith("urllib") for name in imported)
    handler = next(
        node for node in _nodes(SRC / "service" / "server.py", ast.ClassDef)
        if node.name == "_ServiceHandler"
    )
    nagle = [
        node.value for node in handler.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["disable_nagle_algorithm"]
    ]
    assert [ast.literal_eval(value) for value in nagle] == [True]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _module_level_imports(path: Path, *, functions: bool = False) -> list[str]:
    """The absolute names a module imports while it is being imported (every
    import outside a function body; with ``functions``, those inside one
    too); ``from X import y`` names ``X`` and ``X.y``."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    names: list[str] = []
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not functions:
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: package.count(".") + 2 - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            names += [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def _import_graph() -> dict[str, set[str]]:
    """``{module: modules its import runs}`` over ``src/repro``, each package
    ``__init__`` a node of its own.  Importing ``a.b.c`` runs the ``a`` and
    ``a.b`` inits first, except those the importer sits in: they are already
    running when it is imported."""
    paths = {_module_name(path): path for path in SRC.rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        own = {".".join(name.split(".")[:i]) for i in range(1, name.count(".") + 2)}
        runs = set()
        for imported in _module_level_imports(path):
            parts = imported.split(".")
            runs |= {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
        graph[name] = (runs & paths.keys()) - own
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    done: set[str] = set()

    def visit(path: list[str]) -> list[str] | None:
        for successor in sorted(graph[path[-1]]):
            if successor in path:
                return path[path.index(successor):] + [successor]
            if successor not in done:
                found = visit(path + [successor])
                if found:
                    return found
        done.add(path[-1])
        return None

    for node in sorted(graph):
        found = None if node in done else visit([node])
        if found:
            return found
    return None


def test_the_import_graph_is_layered():
    """Module-level imports among ``src/repro`` modules form no cycle: a
    package ``__init__`` names its exports lazily (``repro/_lazy.py``) instead
    of importing the layers above it, so importing a layer runs only the
    layers below it."""
    graph = _import_graph()
    assert "repro.smp.passage" in graph["repro.core.jobs"]  # the scan sees edges
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_the_net_layer_imports_nothing_above_it():
    """No ``repro.petri`` module imports the solvers, the facade or the
    service, at module level or inside a function: a solver over a net is
    built on its kernel (``PassageTimeSolver(build_kernel(space), ...)``)."""
    imports = {
        path.name: _module_level_imports(path, functions=True)
        for path in sorted((SRC / "petri").glob("*.py"))
    }
    assert "repro.smp.kernel" in imports["statespace.py"]  # the scan sees imports
    above = ("repro.core", "repro.api", "repro.service")
    assert [
        f"{module}:{name}"
        for module, names in imports.items()
        for name in names
        if name in above or name.startswith(tuple(f"{layer}." for layer in above))
    ] == []


def test_heavy_modules_are_imported_where_they_run():
    """The SciPy submodules one function calls are imported in that function,
    and the HTTP server and the sqlite store only by the two modules that are
    them."""
    heavy = {"scipy.optimize", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.special"}
    owners = {"http.server": {"service/server.py"}, "sqlite3": {"jobs/store.py"}}
    found: dict[str, set[str]] = {module: set() for module in heavy | owners.keys()}
    for path in sorted(SRC.rglob("*.py")):
        for imported in _module_level_imports(path):
            for module in found:
                if imported == module or imported.startswith(module + "."):
                    found[module].add(path.relative_to(SRC).as_posix())
    assert found == {**{module: set() for module in heavy}, **owners}


_FRESH_IMPORTS = {
    "repro": "import repro",
    "passage": "import repro.smp.passage",
    "petri": "import repro.petri",
    "build": (
        "from repro import Model\n"
        "from repro.models import VotingParameters, voting_spec_text\n"
        "Model.from_spec(voting_spec_text(VotingParameters(8, 3, 2))).states('p1 > 0')"
    ),
}


@pytest.mark.parametrize("case", sorted(_FRESH_IMPORTS))
def test_a_fresh_process_loads_only_the_layers_it_runs(case):
    """Against what ``numpy`` and ``scipy.sparse`` load on their own (so the
    check holds at any SciPy release), neither importing the package nor
    building a model loads the server, the job store or a SciPy submodule the
    build does not call; the solver loads nothing above itself."""
    code = (
        "import sys\n"
        "import numpy, scipy.sparse\n"
        "baseline = set(sys.modules)\n"
        f"{_FRESH_IMPORTS[case]}\n"
        "print(sorted(set(sys.modules) - baseline))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    added = set(ast.literal_eval(done.stdout))
    assert {"repro.smp.passage", "repro.petri", "repro"} & added  # the import ran
    forbidden = {
        "repro.service.server", "repro.jobs", "http.server", "sqlite3",
        "scipy.optimize", "scipy.sparse.linalg", "scipy.special",
    }
    if case == "passage":
        forbidden |= {"repro.service", "repro.api"}
    assert sorted(added & forbidden) == []
