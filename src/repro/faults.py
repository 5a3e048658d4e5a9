"""Deterministic fault injection: one mechanism for every failure domain.

The durability machinery built up by the distributed/serving layers — per-block
checkpoints, pool rebuilds, the durable job log, artifact checksums, the
hung-worker watchdog — is only trustworthy if every defence is *exercised*.
This module provides the named fault points those defences are tested through:

* a **fault point** is a plain ``faults.fire("checkpoint.merge", digest=...)``
  call at an interesting place in the code.  With no plan installed it is a
  no-op (one dict lookup), so production paths pay nothing;
* a :class:`FaultPlan` is a set of :class:`FaultRule` s — *which* points
  misbehave, *how* (``crash | hang | delay | corrupt-bytes | enospc | raise``)
  and *when* (probability, after-N-hits, at-most-N-times), seeded so a chaos
  run is reproducible;
* plans are installed programmatically (:func:`install` / :func:`active`) or
  through the ``REPRO_FAULTS`` environment variable.  Either way the pool
  backend ships the plan in force (:func:`active_spec`) with every s-block and
  the worker :func:`adopt` s it — the one way to reach fault points inside a
  pool whose workers were forked before the plan existed.

``REPRO_FAULTS`` grammar (semicolon-separated clauses)::

    REPRO_FAULTS="seed=42;state=/tmp/chaos;worker.solve=crash:limit=1,block=1"

    seed=N                 deterministic seed for probability / byte picks
    state=DIR              cross-process bookkeeping directory (see below)
    POINT=ACTION[:OPTS]    one rule; OPTS are comma-separated key=value pairs

Rule options: ``p`` (probability in [0,1], default 1), ``after`` (skip the
first N hits), ``limit`` (fire at most N times), ``seconds`` (hang/delay
duration).  Any other key is a *label filter* matched against the keyword
arguments of the ``fire`` call (``block=1`` only fires on block index 1).

With a ``state`` directory, ``limit`` is enforced **across processes** by
claiming ``O_EXCL`` marker files — the replacement for ad-hoc sentinel-file
hooks: a rule with ``limit=1`` crashes the first worker that reaches the
point and lets the respawned worker through.  Without a state directory,
``limit`` (like ``after`` and ``p``) is counted per process.

Actions at a ``fire`` point:

``crash``           ``os._exit(1)`` — the process dies as if SIGKILLed
``hang``            sleep for ``seconds`` (default 3600) — watchdog food
``delay``           sleep for ``seconds`` (default 0.05) and continue
``enospc``          raise ``OSError(ENOSPC)`` — a full disk
``raise``           raise :class:`FaultInjected`
``corrupt-bytes``   no-op at ``fire``; consumed by :func:`mangle` /
                    :func:`corrupt_buffer` on the data path of the same point

Every injected fault increments ``repro_faults_injected_total{point,action}``.
"""
from __future__ import annotations

import contextlib
import errno
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "active",
    "active_spec",
    "adopt",
    "clear",
    "corrupt_buffer",
    "fire",
    "install",
    "mangle",
]

ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("crash", "hang", "delay", "corrupt-bytes", "enospc", "raise")

#: default sleep lengths when a rule does not set ``seconds``
_HANG_SECONDS = 3600.0
_DELAY_SECONDS = 0.05


class FaultInjected(RuntimeError):
    """An injected ``raise`` fault (never raised by real failures)."""

    def __init__(self, point: str, action: str = "raise"):
        super().__init__(f"injected fault at {point!r} (action={action})")
        self.point = point
        self.action = action

    def __reduce__(self):
        # Crosses the worker->master pickle boundary; the default reduction
        # would replay the formatted message into ``point``.
        return (FaultInjected, (self.point, self.action))


@dataclass
class FaultRule:
    """One (point, action) rule with its trigger conditions."""

    point: str
    action: str
    probability: float = 1.0
    #: skip the first N matching hits (per process)
    after: int = 0
    #: fire at most N times (cross-process when the plan has a state dir)
    limit: int | None = None
    #: hang / delay duration
    seconds: float | None = None
    #: label filters matched (as strings) against fire() keyword arguments
    match: dict = field(default_factory=dict)
    _hits: int = field(default=0, repr=False, compare=False)
    _fired: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")

    def matches(self, point: str, labels: dict) -> bool:
        if point != self.point:
            return False
        return all(
            str(labels.get(key)) == str(value) for key, value in self.match.items()
        )

    def spec(self) -> str:
        """This rule as one ``REPRO_FAULTS`` clause."""
        opts = []
        if self.probability < 1.0:
            opts.append(f"p={self.probability!r}")
        if self.after:
            opts.append(f"after={self.after}")
        if self.limit is not None:
            opts.append(f"limit={self.limit}")
        if self.seconds is not None:
            opts.append(f"seconds={self.seconds!r}")
        opts.extend(f"{k}={v}" for k, v in self.match.items())
        head = f"{self.point}={self.action}"
        return head + (":" + ",".join(opts) if opts else "")


class FaultPlan:
    """A seeded set of fault rules, installable in-process or via the env."""

    def __init__(self, rules=(), *, seed: int = 0, state_dir=None):
        self.rules: list[FaultRule] = list(rules)
        self.seed = int(seed)
        self.state_dir = Path(state_dir) if state_dir else None
        self._lock = threading.Lock()
        self._rngs: dict[int, random.Random] = {}

    # ------------------------------------------------------------- building
    def rule(self, point: str, action: str, **options) -> "FaultPlan":
        """Append a rule (builder style); unknown options become label filters."""
        known = {}
        for name in ("probability", "after", "limit", "seconds"):
            if name in options:
                known[name] = options.pop(name)
        if "p" in options:
            known["probability"] = options.pop("p")
        self.rules.append(FaultRule(point, action, match=options, **known))
        return self

    def spec(self) -> str:
        """The whole plan as a ``REPRO_FAULTS`` value (for child processes)."""
        clauses = [f"seed={self.seed}"]
        if self.state_dir is not None:
            clauses.append(f"state={self.state_dir}")
        clauses.extend(rule.spec() for rule in self.rules)
        return ";".join(clauses)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` value (see the module docstring)."""
        plan = cls()
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            head, _, value = clause.partition("=")
            head = head.strip()
            if head == "seed":
                plan.seed = int(value)
                continue
            if head == "state":
                plan.state_dir = Path(value)
                continue
            action, _, opt_text = value.partition(":")
            action = action.strip()
            options: dict = {}
            if opt_text:
                for pair in opt_text.split(","):
                    key, _, raw = pair.partition("=")
                    key = key.strip()
                    raw = raw.strip()
                    if key in ("p", "probability"):
                        options["probability"] = float(raw)
                    elif key == "after":
                        options["after"] = int(raw)
                    elif key == "limit":
                        options["limit"] = int(raw)
                    elif key == "seconds":
                        options["seconds"] = float(raw)
                    else:
                        options[key] = raw
            plan.rule(head, action, **options)
        return plan

    # ------------------------------------------------------------- firing
    def _rng(self, index: int, point: str) -> random.Random:
        rng = self._rngs.get(index)
        if rng is None:
            rng = self._rngs[index] = random.Random(f"{self.seed}:{index}:{point}")
        return rng

    def _claim(self, index: int, limit: int) -> bool:
        """Claim one cross-process firing token for rule ``index``."""
        directory = self.state_dir
        directory.mkdir(parents=True, exist_ok=True)
        for token in range(limit):
            marker = directory / f"rule{index}.fire{token}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                continue
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return True
        return False

    def _should_fire(self, index: int, rule: FaultRule) -> bool:
        with self._lock:
            rule._hits += 1
            if rule._hits <= rule.after:
                return False
            if (
                rule.probability < 1.0
                and self._rng(index, rule.point).random() >= rule.probability
            ):
                return False
            if rule.limit is not None:
                if self.state_dir is not None:
                    return self._claim(index, rule.limit)
                if rule._fired >= rule.limit:
                    return False
            rule._fired += 1
            return True

    def fire(self, point: str, **labels) -> None:
        for index, rule in enumerate(self.rules):
            if rule.action == "corrupt-bytes" or not rule.matches(point, labels):
                continue
            if not self._should_fire(index, rule):
                continue
            _note_injected(point, rule.action)
            if rule.action == "crash":
                os._exit(1)
            elif rule.action == "hang":
                time.sleep(rule.seconds if rule.seconds is not None else _HANG_SECONDS)
            elif rule.action == "delay":
                time.sleep(rule.seconds if rule.seconds is not None else _DELAY_SECONDS)
            elif rule.action == "enospc":
                raise OSError(errno.ENOSPC, "No space left on device (injected)")
            elif rule.action == "raise":
                raise FaultInjected(point)

    def _corruption_rule(self, point: str, labels: dict) -> int | None:
        for index, rule in enumerate(self.rules):
            if rule.action != "corrupt-bytes" or not rule.matches(point, labels):
                continue
            if self._should_fire(index, rule):
                return index
        return None

    def mangle(self, point: str, data: bytes, **labels) -> bytes:
        index = self._corruption_rule(point, labels)
        if index is None or not data:
            return data
        _note_injected(point, "corrupt-bytes")
        rng = self._rng(index, point)
        mutated = bytearray(data)
        for _ in range(max(1, len(mutated) // 1024)):
            mutated[rng.randrange(len(mutated))] ^= 0xFF
        return bytes(mutated)

    def corrupt_buffer(self, point: str, buf, *, start: int = 0, **labels) -> bool:
        index = self._corruption_rule(point, labels)
        if index is None:
            return False
        size = len(buf)
        if start >= size:
            return False
        _note_injected(point, "corrupt-bytes")
        rng = self._rng(index, point)
        for _ in range(max(1, (size - start) // (1 << 20))):
            position = rng.randrange(start, size)
            buf[position] = buf[position] ^ 0xFF
        return True


# ---------------------------------------------------------------------------
# Module-level switchboard.  A programmatically installed plan wins; otherwise
# the environment spec is parsed (and cached against the raw string, so tests
# that monkeypatch REPRO_FAULTS see their plan without an import-order dance).
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[str | None, FaultPlan | None] = (None, None)

# ``os.environ``'s backing dict and the variable's key in it, encoded once:
# with the variable unset a fire() point costs one membership test, where
# ``os.environ.get`` raises and catches a KeyError every call.  Assignments
# through ``os.environ`` (``monkeypatch.setenv`` included) land in this dict.
_ENVIRON, _ENV_KEY = os.environ._data, os.environ.encodekey(ENV_VAR)


def _active_plan() -> FaultPlan | None:
    if _ACTIVE is not None:
        return _ACTIVE
    spec = (os.environ.get(ENV_VAR) or None) if _ENV_KEY in _ENVIRON else None
    global _ENV_CACHE
    if _ENV_CACHE[0] != spec:
        _ENV_CACHE = (spec, FaultPlan.parse(spec) if spec else None)
    return _ENV_CACHE[1]


def install(plan: FaultPlan) -> None:
    """Install ``plan`` for this process (overrides any env spec)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Remove the installed plan and drop any cached env plan state."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = (None, None)


def active_spec() -> str | None:
    """The plan in force here as a ``REPRO_FAULTS`` value, for :func:`adopt`
    in another process (``None`` without a plan)."""
    if _ACTIVE is not None:
        return _ACTIVE.spec()
    return os.environ.get(ENV_VAR) or None


def adopt(spec: str | None) -> None:
    """Make ``spec`` — another process's :func:`active_spec` — the plan here.

    A resident pool worker calls this with every block: it was forked under
    the plan of the day it was born, and the master's plan may have changed
    since.  The spec goes through the environment variable, so a rule's
    per-process counters (``after``, a ``limit`` without a state directory)
    run on for as long as the spec string stays the same.
    """
    global _ACTIVE
    _ACTIVE = None
    if spec:
        os.environ[ENV_VAR] = spec
    else:
        os.environ.pop(ENV_VAR, None)


@contextlib.contextmanager
def active(plan: FaultPlan):
    """Scoped :func:`install` for tests."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def fire(point: str, **labels) -> None:
    """Trigger the fault point ``point``; a no-op without an active plan."""
    plan = _active_plan()
    if plan is not None:
        plan.fire(point, **labels)


def mangle(point: str, data: bytes, **labels) -> bytes:
    """Pass ``data`` through any corrupt-bytes rule on ``point``."""
    plan = _active_plan()
    if plan is None:
        return data
    return plan.mangle(point, data, **labels)


def corrupt_buffer(point: str, buf, *, start: int = 0, **labels) -> bool:
    """Flip bytes in-place in a writable buffer past ``start``; True if fired."""
    plan = _active_plan()
    if plan is None:
        return False
    return plan.corrupt_buffer(point, buf, start=start, **labels)


def _note_injected(point: str, action: str) -> None:
    from .obs.metrics import get_metrics

    get_metrics().counter(
        "repro_faults_injected_total",
        "faults injected by point and action",
        ("point", "action"),
    ).inc(1, point=point, action=action)
