"""Row-parallel Masked SpGEMM driver.

Flow: estimate per-row work → cut contiguous flops-balanced chunks (sized by
the cache-aware :func:`repro.parallel.partition.chunk_budget`, not worker
count) → run the kernel per chunk on the executor → assemble the final CSR
matrix. Assembly has two modes:

* **direct write** (default whenever exact ``row_sizes`` are known, i.e. a
  two-phase request with a prebuilt plan *or* a freshly-run symbolic pass):
  ``indptr/indices/data`` are preallocated from the row sizes and each chunk
  scatters into its disjoint slice via the kernel's ``numeric_rows_into`` —
  zero stitch copies, which is the point of the paper's two-phase
  formulation (§6);
* **stitch** (one-phase requests and kernels without a direct-write
  variant): per-chunk :class:`RowBlock` results are concatenated as before.

Two-phase requests without a plan do not throw the symbolic results away:
the per-chunk sizes are captured into the row sizes that feed the
direct-write numeric pass. Requests carrying a prebuilt plan (``plan=``)
skip the symbolic map entirely.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..errors import AlgorithmError
from ..obs.metrics import current_chunk_observer
from ..obs.trace import current_record
from ..mask import Mask
from ..semiring import PLUS_TIMES, Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_multiplicable
from ..core import registry
from ..core.types import stitch_blocks
from .partition import (
    NATIVE_BYTES_PER_FLOP,
    balanced_partition,
    budget_chunk_count,
    chunk_budget,
    estimate_row_weights,
)


def uses_direct_write(algorithm: str, phases: int,
                      row_sizes_known: bool = True) -> bool:
    """Will the runner take the direct-write path for this configuration?

    True when the kernel has a ``numeric_rows_into`` variant and the request
    is two-phase with (cached or captured) row sizes. Exposed so telemetry
    (``RequestStats``) can report the path without re-deriving the
    conditions.
    """
    if phases != 2 or not row_sizes_known:
        return False
    try:
        spec = registry.get_spec(algorithm)
    except AlgorithmError:
        return False
    return spec.numeric_into is not None


def timed_chunks(fn, kernel: str, phase: str):
    """Wrap a per-chunk callable so each call is timed by one perf_counter
    pair that feeds both a ``chunk`` span on the active trace record and
    the chunk-metric sink — the histogram stays bit-identical to the span
    when tracing is on, and populated when it is off.

    Both are captured *here*, on the submitting thread: contextvars do not
    propagate into thread-pool workers. With neither active, ``fn`` itself
    is returned, so the untraced path stays a bare call."""
    rec = current_record()
    sink = current_chunk_observer()
    if rec is None and sink is None:
        return fn
    trace_id = rec.trace_id if rec is not None else None

    def timed(chunk):
        t0 = time.perf_counter()
        out = fn(chunk)
        t1 = time.perf_counter()
        if rec is not None:
            rec.add_span("chunk", t0, t1, kernel=kernel, phase=phase,
                         rows=len(chunk))
        if sink is not None:
            sink(t1 - t0, kernel, phase, trace_id)
        return out
    return timed


def direct_write_numeric(spec, A, B, mask, semiring, chunks, row_sizes,
                         out_shape, executor) -> CSRMatrix:
    """Preallocate the final CSR arrays from exact ``row_sizes`` and let
    each chunk scatter into its disjoint slice (chunks are contiguous row
    ranges, so each one's destination offsets are a slice of ``indptr``)."""
    nrows, ncols = out_shape
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_sizes, out=indptr[1:])
    nnz = int(indptr[-1])
    cols = np.empty(nnz, dtype=INDEX_DTYPE)
    vals = np.empty(nnz, dtype=np.float64)
    into = spec.numeric_into

    def run(chunk):
        offsets = indptr[int(chunk[0]): int(chunk[-1]) + 2]
        into(A, B, mask, semiring, chunk, cols, vals, offsets)

    executor.map(timed_chunks(run, spec.key, "numeric"), chunks)
    return CSRMatrix(indptr, cols, vals, out_shape, check=False)


def parallel_masked_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    mask: Mask,
    *,
    algorithm: str = "msa",
    semiring: Semiring = PLUS_TIMES,
    phases: int = 1,
    executor=None,
    nchunks: Optional[int] = None,
    plan=None,
    direct_write: bool = True,
) -> CSRMatrix:
    """Row-parallel ``C = M ⊙ (A·B)`` on the given executor.

    ``plan`` (a :class:`repro.core.plan.SymbolicPlan` with cached row sizes)
    makes the two-phase symbolic map a no-op: the sizes are already known, so
    only the numeric chunks are dispatched. Without a plan, a two-phase run
    captures its symbolic chunk results into the row sizes that feed the
    direct-write numeric pass.
    ``direct_write=False`` forces the stitch path — the A/B knob the chunk
    benchmarks use.
    """
    out_shape = check_multiplicable(A.shape, B.shape)
    mask.check_output_shape(out_shape)
    spec = registry.get_spec(algorithm)
    if executor is None:
        from .executor import SerialExecutor

        executor = SerialExecutor()

    weights = estimate_row_weights(A, B, mask, algorithm)
    if nchunks is None:
        # the compiled loops stream ~1/3 the bytes per partial product of
        # the fused pipeline, so native chunks carry 3x the flops for the
        # same cache share (fewer dispatches, same residency)
        budget = (chunk_budget(bytes_per_flop=NATIVE_BYTES_PER_FLOP)
                  if spec.key in registry.NATIVE_BASE else None)
        nchunks = budget_chunk_count(weights, executor.nworkers, budget)
    chunks = balanced_partition(weights, nchunks)
    if not chunks:
        return CSRMatrix.empty(out_shape)

    row_sizes = (plan.row_sizes
                 if plan is not None and phases == 2 else None)
    if phases == 2 and row_sizes is None:
        # capture the symbolic chunk results (previously discarded) into
        # the row sizes that drive the direct-write numeric pass
        sym = executor.map(
            timed_chunks(lambda c: spec.symbolic(A, B, mask, c), spec.key,
                         "symbolic"),
            chunks)
        row_sizes = (sym[0] if len(sym) == 1
                     else np.concatenate(sym)).astype(INDEX_DTYPE,
                                                      copy=False)

    if (direct_write and row_sizes is not None
            and spec.numeric_into is not None):
        return direct_write_numeric(spec, A, B, mask, semiring, chunks,
                                    row_sizes, out_shape, executor)

    blocks = executor.map(
        timed_chunks(lambda c: spec.numeric(A, B, mask, semiring, c),
                     spec.key, "numeric"),
        chunks)
    return stitch_blocks(blocks, out_shape[0], out_shape[1])
