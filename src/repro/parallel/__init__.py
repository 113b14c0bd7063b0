"""Row-parallel execution layer.

The paper parallelizes across output rows only ("plenty of coarse-grained
parallelism across rows", §3) with threads pinned to cores. This package
reproduces that schedule shape in Python:

* :mod:`repro.parallel.partition` — row partitioning, including the
  flops-balanced variant addressing the paper's load-imbalance challenge
  (§2.2 challenge iv);
* :mod:`repro.parallel.executor` — serial, thread and *simulated*
  executors. The simulated executor measures per-chunk serial
  time and reports the makespan a p-worker greedy schedule would achieve —
  an honest work/span model used for strong-scaling experiments on boxes
  whose GIL (or core count) hides real scaling;
* :mod:`repro.parallel.runner` — the chunk→kernel→assembly driver behind
  ``masked_spgemm(..., executor=...)``: direct-to-CSR writes whenever a
  two-phase plan supplies exact row sizes, RowBlock stitch otherwise.
  Chunk counts come from the cache-aware flops budget
  (:func:`repro.parallel.partition.chunk_budget`), not worker count.
"""

from .executor import (
    SerialExecutor,
    SimulatedExecutor,
    ThreadExecutor,
)
from .partition import (
    balanced_partition,
    budget_chunk_count,
    chunk_budget,
    estimate_row_weights,
    uniform_partition,
)
from .runner import parallel_masked_spgemm, uses_direct_write

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "SimulatedExecutor",
    "uniform_partition",
    "balanced_partition",
    "estimate_row_weights",
    "chunk_budget",
    "budget_chunk_count",
    "parallel_masked_spgemm",
    "uses_direct_write",
]
