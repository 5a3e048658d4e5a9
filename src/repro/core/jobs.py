"""Transform-evaluation jobs: the unit of work of the distributed pipeline.

A *job* bundles everything a worker needs to evaluate the Laplace transform
of one measure (a passage time or a transient probability) at arbitrary
s-points: the kernel, the source weighting, the target set and the truncation
options.  It evaluates grids only — ``evaluate_batch(s_values)`` returns the
transform values in input order, through the one block solve of
:mod:`repro.smp`; a single s-point is a grid of one (``evaluate_many([s])``).
Jobs are picklable, so the multiprocessing backend can ship them to worker
processes once and then stream bare s-values, and they expose a stable digest
used to key the on-disk checkpoint cache.
"""
from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..smp.kernel import SMPKernel, UEvaluator, kernel_content_digest
from ..smp.passage import PassageTimeOptions, SPointPolicy, passage_transform_batch
from ..smp.transient import transient_transform_batch

__all__ = ["TransformJob", "PassageTimeJob", "TransientJob", "JobSpec"]


@dataclass
class TransformJob(abc.ABC):
    """A transform-evaluation task: ``evaluate_batch(s_values)`` for arbitrary
    complex s-points."""

    kernel: SMPKernel
    alpha: np.ndarray
    targets: np.ndarray
    options: PassageTimeOptions = field(default_factory=PassageTimeOptions)
    solver: str = "iterative"
    #: iterative/direct routing used by the batched path; ``None`` means the
    #: engine default (small-|s| points go to the sparse-LU solve)
    policy: SPointPolicy | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.targets = np.unique(np.atleast_1d(np.asarray(self.targets, dtype=np.int64)))
        if self.solver not in ("iterative", "direct"):
            raise ValueError("solver must be 'iterative' or 'direct'")
        if self.alpha.shape != (self.kernel.n_states,):
            raise ValueError("alpha must have one weight per state")
        if self.targets.size == 0:
            raise ValueError("at least one target state is required")
        self._evaluator: UEvaluator | None = None
        #: filled by every evaluate_batch call: which evaluation engine served
        #: it plus per-block solve timings ({"engine": ..., "blocks": [...]});
        #: surfaced through service/query statistics
        self.last_report: dict | None = None

    # ------------------------------------------------------------ plumbing
    @property
    def evaluator(self) -> UEvaluator:
        """Lazily constructed (and per-process) U/U' evaluator."""
        if getattr(self, "_evaluator", None) is None:
            self._evaluator = self.kernel.evaluator()
        return self._evaluator

    def attach_evaluator(self, evaluator: UEvaluator) -> None:
        """Install a shared (per-kernel) evaluator instead of building one.

        The analysis service keeps one :class:`UEvaluator` per registered
        model so every measure on that kernel reuses the CSR structure, the
        cached ``U(s)`` grid data and the symbolic direct-solve structure.
        Callers sharing an evaluator across threads must serialise their
        evaluations (its grid caches are not thread-safe).  Like the lazily
        built evaluator, an attached one is dropped on pickling.
        """
        if evaluator.kernel is not self.kernel:
            raise ValueError("evaluator was built for a different kernel")
        self._evaluator = evaluator

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_evaluator"] = None  # rebuild lazily in the worker process
        return state

    def digest(self) -> str:
        """Content hash identifying this measure (kernel + sources + targets)."""
        h = hashlib.sha256()
        h.update(self.kind().encode())
        h.update(kernel_content_digest(self.kernel).encode())
        h.update(self.alpha.tobytes())
        h.update(self.targets.tobytes())
        # The routing policy changes which points come back exact vs
        # truncated, so checkpoints must not be shared across policies.
        h.update(f"{self.options.epsilon}:{self.solver}:{self.policy!r}".encode())
        return h.hexdigest()[:32]

    # ----------------------------------------------------------------- API
    @abc.abstractmethod
    def kind(self) -> str:
        """Short label ("passage" / "transient") used in digests and logs."""

    @abc.abstractmethod
    def evaluate_batch(self, s_values) -> np.ndarray:
        """Evaluate a whole s-grid in one sweep via the batched engine: the
        complex transform values, in input order."""

    def _batch(self, transform, s_values) -> np.ndarray:
        """:meth:`evaluate_batch` through one of the batched transforms of
        :mod:`repro.smp` (they share a signature); records its report."""
        report: dict = {}
        values, _ = transform(
            self.evaluator, self.alpha, self.targets, s_values, self.options,
            solver=self.solver, policy=self.policy, report=report,
        )
        self.last_report = report
        return values

    def evaluate_many(self, s_values) -> dict[complex, complex]:
        """Evaluate a batch of s-points, returned as an ``{s: L(s)}`` mapping."""
        s_list = [complex(s) for s in s_values]
        values = self.evaluate_batch(np.asarray(s_list, dtype=complex))
        return {s: complex(v) for s, v in zip(s_list, values)}


class PassageTimeJob(TransformJob):
    """Evaluates the first-passage-time transform ``L_{i->j}(s)``."""

    def kind(self) -> str:
        return "passage"

    def evaluate_batch(self, s_values) -> np.ndarray:
        s_values = np.asarray(s_values, dtype=complex).ravel()
        values = np.empty(s_values.shape, dtype=complex)
        nonzero = np.flatnonzero(s_values != 0)
        # L(0) is the probability of ever reaching the target set, which is
        # one in the irreducible chains this library targets.  A grid of
        # s = 0 points alone still runs the (empty) solve, so its report
        # names the engine and no blocks instead of keeping the last call's.
        values[s_values == 0] = 1.0 + 0.0j
        values[nonzero] = self._batch(passage_transform_batch, s_values[nonzero])
        return values


class TransientJob(TransformJob):
    """Evaluates the transient-probability transform ``T*_{i->j}(s)``."""

    def kind(self) -> str:
        return "transient"

    def evaluate_batch(self, s_values) -> np.ndarray:
        return self._batch(
            transient_transform_batch, np.asarray(s_values, dtype=complex).ravel()
        )


_JOB_KINDS = {"passage": PassageTimeJob, "transient": TransientJob}


@dataclass
class JobSpec:
    """The picklable skeleton of a :class:`TransformJob` — no kernel arrays.

    A worker that has attached the kernel plane (see
    :mod:`repro.smp.plane`) only needs to know *which measure* to evaluate:
    the kernel digest (for sanity/checkpoint keying), the non-zero source
    weights, the target indices and the truncation/routing options.  Pickling
    a spec costs a few hundred bytes regardless of kernel size; ``build``
    reconstitutes a full job against the process-local evaluator with a
    digest identical to the original job's.
    """

    kind: str
    kernel_digest: str
    n_states: int
    alpha_indices: np.ndarray
    alpha_weights: np.ndarray
    targets: np.ndarray
    options: PassageTimeOptions = field(default_factory=PassageTimeOptions)
    solver: str = "iterative"
    policy: SPointPolicy | None = None

    @classmethod
    def from_job(cls, job: TransformJob) -> "JobSpec":
        indices = np.flatnonzero(job.alpha)
        return cls(
            kind=job.kind(),
            kernel_digest=kernel_content_digest(job.kernel),
            n_states=job.kernel.n_states,
            alpha_indices=indices.astype(np.int64),
            alpha_weights=np.asarray(job.alpha[indices], dtype=float),
            targets=job.targets.copy(),
            options=job.options,
            solver=job.solver,
            policy=job.policy,
        )

    def build(self, evaluator: UEvaluator) -> TransformJob:
        """Reconstitute the job against a process-local evaluator."""
        kernel = evaluator.kernel
        if kernel.n_states != self.n_states:
            raise ValueError(
                f"evaluator kernel has {kernel.n_states} states, "
                f"spec expects {self.n_states}"
            )
        local_digest = kernel_content_digest(kernel)
        if local_digest != self.kernel_digest:
            raise ValueError(
                "evaluator kernel digest does not match the job spec "
                f"({local_digest[:12]} != {self.kernel_digest[:12]})"
            )
        alpha = np.zeros(kernel.n_states, dtype=float)
        alpha[self.alpha_indices] = self.alpha_weights
        job = _JOB_KINDS[self.kind](
            kernel=kernel,
            alpha=alpha,
            targets=self.targets,
            options=self.options,
            solver=self.solver,
            policy=self.policy,
        )
        job.attach_evaluator(evaluator)
        return job
