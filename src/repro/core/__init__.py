"""Core Masked SpGEMM algorithms — the paper's primary contribution.

Two tiers:

* **reference** (:mod:`repro.core.reference`) — pure-Python row-by-row
  implementations that drive the accumulator objects exactly as the paper's
  pseudocode does (Algorithms 2-5). Used for correctness and as the
  behavioural specification.
* **vectorized** (``*_kernel`` modules) — numpy batch kernels with the same
  per-row work decomposition, used by benchmarks and the parallel layer.

Entry point: :func:`repro.core.api.masked_spgemm`.
"""

from .api import masked_spgemm, spgemm
from .plan import SymbolicPlan, build_plan
from .registry import available_algorithms, algorithm_info, display_name

__all__ = [
    "masked_spgemm",
    "spgemm",
    "SymbolicPlan",
    "build_plan",
    "available_algorithms",
    "algorithm_info",
    "display_name",
]
