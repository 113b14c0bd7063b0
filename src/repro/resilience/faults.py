"""Deterministic fault injection for the serving stack.

Resilience code that is only exercised by real hardware failures is
untested code. :class:`FaultPlan` is the seam that lets the chaos suite
and the serving gate's chaos leg *actually break things*, on a schedule
that is exact and replayable:

* A plan is a list of :class:`FaultSpec`\\ s, each naming an injection
  *site* (see :data:`FAULT_SITES`; ``engine.kernel`` is the only one), an
  *action* (``kill``, ``slow``, ``error``), a bounded fire *count*, and
  optionally how many matching checks to *skip* first.
* Sites call :meth:`FaultPlan.check` when they reach the instrumented
  point. The plan decrements its counters under a lock and returns the
  spec exactly ``count`` times — the Nth eligible request fails, the
  N+1th succeeds, every run.

Plans come from ``Engine(faults=...)`` in tests or the ``REPRO_FAULTS``
environment variable, which every default ``Engine()`` reads (so it
reaches ``repro serve`` unmodified), using a compact
``site:action[:count[:param]]`` comma-separated syntax::

    REPRO_FAULTS="engine.kernel:error:2" python -m repro serve --smoke
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = ["FaultSpec", "FaultPlan", "InjectedFault", "FAULT_SITES",
           "apply_fault"]

ENV_VAR = "REPRO_FAULTS"

#: the instrumented sites and what each action means there
FAULT_SITES = {
    "engine.kernel": "numeric kernel call, re-checked on every ladder rung",
}

_ACTIONS = ("kill", "slow", "error")


class InjectedFault(ReproError):
    """An error raised *on purpose* by a :class:`FaultSpec` with action
    ``error``."""


@dataclass
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    site : instrumented point name (see :data:`FAULT_SITES`).
    action : ``kill`` (``os._exit(1)`` the process), ``slow`` (sleep
        ``param`` seconds, default 0.2), ``error`` (raise
        :class:`InjectedFault`).
    count : how many matching checks fire this spec before it is spent.
    skip : how many matching checks pass through untouched first.
    param : action parameter (sleep seconds for ``slow``).
    """

    site: str
    action: str
    count: int = 1
    skip: int = 0
    param: float = 0.2

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {_ACTIONS})")
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.skip < 0:
            raise ValueError(f"fault skip must be >= 0, got {self.skip}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``site:action[:count[:param]]`` clause."""
        parts = text.strip().split(":")
        if len(parts) < 2:
            raise ValueError(
                f"fault spec {text!r} needs at least site:action")
        site, action = parts[0], parts[1]
        count = int(parts[2]) if len(parts) > 2 and parts[2] else 1
        param = float(parts[3]) if len(parts) > 3 and parts[3] else 0.2
        return cls(site=site, action=action, count=count, param=param)


class FaultPlan:
    """A thread-safe schedule of faults, consulted by instrumented sites.

    ``check(site)`` returns the :class:`FaultSpec` to apply (decrementing
    its budget) or ``None``. ``fired`` records how many times each
    ``(site, action)`` actually triggered, for assertions in the chaos
    suite and the CI gate.
    """

    def __init__(self, specs=()):
        self._lock = threading.Lock()
        self._specs = [s if isinstance(s, FaultSpec) else FaultSpec.parse(s)
                       for s in specs]
        self.fired: dict[tuple[str, str], int] = {}

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated ``site:action[:count[:param]]`` list."""
        clauses = [c for c in text.split(",") if c.strip()]
        return cls(FaultSpec.parse(c) for c in clauses)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """Build a plan from ``$REPRO_FAULTS`` (None when unset/empty)."""
        text = (environ if environ is not None else os.environ).get(ENV_VAR)
        if not text or not text.strip():
            return None
        return cls.parse(text)

    def __bool__(self) -> bool:
        with self._lock:
            return any(s.count > 0 for s in self._specs)

    def check(self, site: str) -> FaultSpec | None:
        """Does a fault fire at ``site`` now? Decrements skip/count."""
        with self._lock:
            for spec in self._specs:
                if spec.site != site:
                    continue
                if spec.skip > 0:
                    spec.skip -= 1
                    continue
                if spec.count <= 0:
                    continue
                spec.count -= 1
                key = (spec.site, spec.action)
                self.fired[key] = self.fired.get(key, 0) + 1
                return spec
        return None

    def fired_total(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan {self._specs!r} fired={self.fired!r}>"


def apply_fault(spec) -> None:
    """Execute a fired spec at the instrumented point.

    Accepts ``None`` (no-op) so call sites can write
    ``apply_fault(plan.check(site))``.
    """
    if spec is None:
        return
    site, action, param = spec.site, spec.action, spec.param
    if action == "kill":
        # A real crash, not an exception: skip interpreter teardown, exactly
        # like a SIGKILL'd process.
        os._exit(1)
    elif action == "slow":
        time.sleep(param)
    elif action == "error":
        raise InjectedFault(f"injected fault at {site}")
    else:  # pragma: no cover - parse() rejects unknown actions
        raise ValueError(f"unknown fault action {action!r}")

