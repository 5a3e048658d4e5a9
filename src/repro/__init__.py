"""semimarkov (package name ``repro``) — passage-time quantiles and transient
distributions in large semi-Markov models.

A Python reproduction of Bradley, Dingle, Harrison & Knottenbelt,
"Distributed Computation of Passage Time Quantiles and Transient State
Distributions in Large Semi-Markov Models", IPDPS 2003.

Quick start::

    import numpy as np
    from repro import SMPBuilder, PassageTimeSolver
    from repro.distributions import Erlang, Uniform

    builder = SMPBuilder()
    builder.add_transition("working", "broken", 1.0, Erlang(2.0, 3))
    builder.add_transition("broken", "working", 1.0, Uniform(1.0, 2.0))
    kernel = builder.build()

    solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
    density = solver.density(np.linspace(0.1, 6.0, 60))
    p99 = solver.quantile(0.99, 0.1, 20.0)

Subpackage map (README.md, "Layout", has the full inventory):

===================  ======================================================
``repro.api``            the public facade: Model -> Query -> Engine -> result
``repro.distributions``  sojourn-time distributions and transforms
``repro.laplace``        Euler / Laguerre numerical transform inversion
``repro.smp``            SMP kernel, iterative passage-time algorithm
``repro.core``           transform jobs, result objects, raw-kernel solvers
``repro.petri``          semi-Markov stochastic Petri nets
``repro.dnamaca``        the DNAmaca-style specification language
``repro.models``         the voting system and other example models
``repro.simulation``     validating discrete-event simulators
``repro.distributed``    executors (serial / worker pool), checkpoint store
``repro.partition``      state-space partitioning (future-work extension)
===================  ======================================================

``import repro`` imports nothing else: each name in ``__all__`` and each
subpackage is imported on first access (PEP 562, :mod:`repro._lazy`), so a
process pays only for the layers it runs.  Building a model never loads the
analysis server, the job store or ``scipy.optimize``.
"""
from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    "api": ["Model", "PassageQuery", "TransientQuery", "SimulationQuery"],
    "core": [
        "PassageTimeSolver",
        "TransientSolver",
        "PassageTimeResult",
        "TransientResult",
        "PassageTimeJob",
        "TransientJob",
    ],
    "smp": ["PassageTimeOptions", "SMPBuilder", "SMPKernel"],
    "petri": ["SMSPN", "Transition", "explore", "build_kernel"],
    "dnamaca": ["load_model"],
})
__all__ += ["__version__"]
