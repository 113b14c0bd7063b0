"""Chunk-fused ESC (expand–sort–compress) kernel.

The paper's kernels are formulated per output row; this kernel instead
processes a whole *chunk* of rows with a constant number of flat numpy
passes — the ESC strategy of highly-parallel SpGEMM (Buluç & Gilbert) with
the mask intersection batched chunk-wide, in the spirit of Wheatman et
al.'s masked matrix multiplication for emergent sparsity:

1. **expand** — one batched gather produces the chunk's entire partial-
   product stream (:func:`repro.core.expand.expand_rows`);
2. **sort** — products get composite keys ``t * ncols + col`` (t =
   chunk-local row; chunks pre-split by
   :func:`repro.core.expand.fused_blocks` so keys fit int64 *and* the
   stream stays under the flops budget, bounding peak memory) and one
   stable argsort brings duplicates together — the fused equivalent of
   ``np.lexsort((col, row))``;
3. **compress** — a segmented reduction over the sorted stream
   (:func:`repro.core.expand.segment_reduce`) merges duplicates in their
   original Gustavson order (bit-identical sums);
4. **mask** — one ``searchsorted`` of the compressed keys against the
   mask's flattened keys keeps entries in the mask (or, complemented,
   drops them) for the whole chunk at once.

Because mask application is a post-filter on compressed keys, the
complement variant is the same code path with the filter inverted — ESC
supports complemented masks natively.

On low-degree workloads (TC / k-truss rows average ~10 partial products)
the per-row kernels are bound by Python call overhead, not memory traffic;
ESC's cost is O(flops · log flops) flat numpy work, which wins whenever
rows are small and plentiful. ``registry.auto_select`` routes that regime
here when the compiled tier cannot run the product.
"""

from __future__ import annotations

import numpy as np

from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _sorted_unique
from ..validation import INDEX_DTYPE
from .expand import (
    composite_keys,
    expand_rows,
    expand_rows_pattern,
    fused_blocks,
    mask_membership,
    segment_reduce,
)
from .types import RowBlock, concat_blocks, empty_block, write_rows_into


def _compress(keys: np.ndarray, vals: np.ndarray, add: np.ufunc
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sort the product stream by composite key and merge duplicates.

    The stable sort keeps equal keys in stream order, so
    :func:`~repro.core.expand.segment_reduce` accumulates each output
    entry's products in exactly the order a sequential Gustavson loop
    would — float sums are bit-identical to the per-row kernels and the
    reference tier.
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    starts = np.concatenate([[0], np.flatnonzero(ks[1:] != ks[:-1]) + 1])
    return ks[starts], segment_reduce(vals[order], starts, add)


def _numeric_chunk(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                   rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, cols, vals = expand_rows(A, B, rows, semiring)
    if cols.size == 0:
        return empty_block(rows.size)
    keys = composite_keys(seg, cols, ncols)
    ukeys, uvals = _compress(keys, vals, semiring.add.ufunc)
    keep = mask_membership(mask, rows, ukeys, ncols)
    if mask.complemented:
        np.logical_not(keep, out=keep)
    fk = ukeys[keep]
    sizes = np.bincount(fk // ncols, minlength=rows.size).astype(INDEX_DTYPE)
    return RowBlock(sizes, (fk % ncols).astype(INDEX_DTYPE, copy=False),
                    uvals[keep])


def _symbolic_chunk(A: CSRMatrix, B: CSRMatrix, mask: Mask, rows: np.ndarray
                    ) -> np.ndarray:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return np.zeros(rows.size, dtype=INDEX_DTYPE)
    seg, cols = expand_rows_pattern(A, B, rows)
    if cols.size == 0:
        return np.zeros(rows.size, dtype=INDEX_DTYPE)
    ukeys = _sorted_unique(composite_keys(seg, cols, ncols))
    keep = mask_membership(mask, rows, ukeys, ncols)
    if mask.complemented:
        np.logical_not(keep, out=keep)
    return np.bincount(ukeys[keep] // ncols,
                       minlength=rows.size).astype(INDEX_DTYPE)


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    """Chunk-fused numeric pass (plain and complemented masks)."""
    return concat_blocks([_numeric_chunk(A, B, mask, semiring, block)
                          for block in fused_blocks(A, B, rows)])


def numeric_rows_into(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray,
                      out_cols: np.ndarray, out_vals: np.ndarray,
                      offsets: np.ndarray) -> None:
    """Direct-write numeric pass (see :mod:`repro.core.types`): each fused
    block's compressed stream is already row-grouped and column-sorted, so it
    lands in the final CSR arrays with one slice copy — no per-block concat,
    no stitch."""
    write_rows_into(lambda b: _numeric_chunk(A, B, mask, semiring, b),
                    fused_blocks(A, B, rows), offsets, out_cols, out_vals,
                    algorithm="esc")


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    """Pattern-only pass: unique compressed keys filtered by the mask."""
    parts = [_symbolic_chunk(A, B, mask, block)
             for block in fused_blocks(A, B, rows)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
