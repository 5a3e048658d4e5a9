"""High-level passage-time and transient analysis API (the paper's pipeline).

Typical use::

    from repro.core import PassageTimeSolver

    solver = PassageTimeSolver(kernel, sources=[0], targets=[5, 6])
    result = solver.solve(t_points=np.linspace(1, 50, 50))
    result.density, result.cdf, result.quantile(0.99)

The solvers hide the three-stage structure of the computation (decide which
s-points the Laplace inversion needs, evaluate the passage-time / transient
transform at each of them, invert); they are thin shims over the evaluation
loop (:mod:`repro.service.scheduler`) and the measure helpers
(:mod:`repro.api.measures`) every other surface shares.
"""
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "jobs": ["TransformJob", "PassageTimeJob", "TransientJob"],
    "results": ["PassageTimeResult", "TransientResult"],
    "solvers": ["PassageTimeSolver", "TransientSolver"],
})
