"""Hybrid per-row kernel — the paper's future work, implemented.

§9: "As future work, we will investigate hybrid algorithms that can use
different accumulators in the same Masked SpGEMM depending on the density of
the mask and parts of matrices being processed."

This kernel classifies every output row by its *row-local* densities and
routes it to the cheapest family:

* ``inner`` — when the row's pull cost (one dot per mask entry:
  ``nnz(m_i) · (nnz(A_i*) + d̄_B)``) clearly undercuts its push cost
  (``flops_i``);
* ``heap``  — when the row produces few products relative to its mask
  (sorting a short stream beats preparing any scatter table);
* ``msa``   — everything else (the paper's all-round winner).

Rows are grouped per class and each group runs its sub-kernel *batched*, so
the hybrid keeps the vectorized tier's efficiency; the per-row decisions are
pure integer arithmetic on the CSR metadata (no inspection of values).

Complemented masks route every row to MSA/Hash (the only families with
complement support and robust constants).
"""

from __future__ import annotations

import numpy as np

from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE
from . import heap_kernel, inner_kernel, msa_kernel
from .expand import chunk_flops
from .types import RowBlock

#: class labels (order fixes the sub-kernel dispatch table)
_CLASSES = ("msa", "heap", "inner")


def classify_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, rows: np.ndarray
                  ) -> np.ndarray:
    """Per-row class index into ``_CLASSES`` for the requested rows."""
    if mask.complemented:
        return np.zeros(rows.size, dtype=np.int8)  # all MSA
    flops = chunk_flops(A, B, rows).astype(np.float64)
    m_nnz = np.diff(mask.indptr)[rows].astype(np.float64)
    a_nnz = np.diff(A.indptr)[rows].astype(np.float64)
    d_b = B.nnz / max(B.nrows, 1)

    pull_cost = m_nnz * (a_nnz + d_b)
    push_cost = flops + m_nnz
    cls = np.zeros(rows.size, dtype=np.int8)  # default msa
    # heap: product stream much shorter than the mask -> sort it instead of
    # marking the whole mask row in a table
    cls[flops * 4.0 < m_nnz] = 1
    # inner: dots clearly cheaper than the push expansion
    cls[pull_cost * 2.0 < push_cost] = 2
    # rows with no mask (nothing to produce) are free in every class
    cls[m_nnz == 0] = 0
    return cls


def _merge_groups(rows: np.ndarray, group_rows: list[np.ndarray],
                  group_blocks: list[RowBlock]) -> RowBlock:
    """Reassemble per-group RowBlocks into the original row order.

    Fully vectorized: per-row destinations come from a cumsum over scattered
    sizes, and each group's payload moves with one fancy-indexed copy via the
    concat-ranges trick (a Python loop here would erase the hybrid's win).
    """
    from .expand import concat_ranges

    nrows = rows.size
    order = np.argsort(rows, kind="stable")  # rows are usually pre-sorted
    sorted_rows = rows[order]
    inv_positions = order  # position in `rows` of the t-th sorted row

    sizes = np.zeros(nrows, dtype=INDEX_DTYPE)
    group_pos: list[np.ndarray] = []
    for g_rows, block in zip(group_rows, group_blocks):
        p = inv_positions[np.searchsorted(sorted_rows, g_rows)]
        sizes[p] = block.sizes
        group_pos.append(p)
    offsets = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    cols = np.empty(total, dtype=INDEX_DTYPE)
    vals = np.empty(total, dtype=np.float64)
    for p, block in zip(group_pos, group_blocks):
        dst = concat_ranges(offsets[p], block.sizes)
        cols[dst] = block.cols
        vals[dst] = block.vals
    return RowBlock(sizes, cols, vals)


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    cls = classify_rows(A, B, mask, rows)
    kernels = (msa_kernel.numeric_rows, heap_kernel.numeric_rows,
               inner_kernel.numeric_rows)
    group_rows: list[np.ndarray] = []
    group_blocks: list[RowBlock] = []
    b_csc = None
    for c, kern in enumerate(kernels):
        sel = rows[cls == c]
        if sel.size == 0:
            continue
        if c == 2:  # share one CSC conversion across the inner group
            if b_csc is None:
                b_csc = B.to_csc()
            block = inner_kernel.numeric_rows(A, B, mask, semiring, sel,
                                              b_csc=b_csc)
        else:
            block = kern(A, B, mask, semiring, sel)
        group_rows.append(sel)
        group_blocks.append(block)
    if len(group_blocks) == 1 and group_rows[0].size == rows.size:
        return group_blocks[0]  # single class: no reshuffle needed
    return _merge_groups(rows, group_rows, group_blocks)


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    cls = classify_rows(A, B, mask, rows)
    kernels = (msa_kernel.symbolic_rows, heap_kernel.symbolic_rows,
               inner_kernel.symbolic_rows)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    for c, kern in enumerate(kernels):
        where = np.flatnonzero(cls == c)
        if where.size == 0:
            continue
        sizes[where] = kern(A, B, mask, rows[where])
    return sizes
