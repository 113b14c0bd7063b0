"""repro.resilience — deadlines and fault injection.

The serving stack's failure-handling layer, composed by the engine and the
async server:

* :mod:`~repro.resilience.deadline` — per-request monotonic budgets and
  the typed :class:`DeadlineExceeded` they shed work with.
* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, the deterministic
  chaos seam (``REPRO_FAULTS`` / ``Engine(faults=...)``).

Recovery itself is the engine's in-process degrade ladder (native → fused
→ loop kernels, bit-identical at every rung). See ``docs/RESILIENCE.md``
for the failure matrix tying fault sites to detection, recovery tier, and
metrics.
"""

from .deadline import Deadline, DeadlineExceeded, resolve_deadline
from .faults import (FAULT_SITES, FaultPlan, FaultSpec, InjectedFault,
                     apply_fault)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "resolve_deadline",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "apply_fault",
]
