"""Vectorized Heap / HeapDot kernels — paper §5.5.

The heap algorithm's essence is: produce the row's partial products *in
sorted column order* via a k-way merge, intersect that stream with the
sorted mask, and collapse equal-column runs by accumulation. The vectorized
tier realizes the merge with an argsort (numpy's sort plays the heap's
role — same O(flops·log) asymptotics, same "no scatter table" memory
profile) followed by a left-to-right segmented reduction
(:func:`repro.core.expand.segment_reduce`).

Two execution strategies share this module:

**Chunk-fused (default)** — :func:`numeric_rows` / :func:`symbolic_rows`
process an entire chunk of rows with flat numpy passes and zero
Python-per-row work, reusing the ESC machinery: one batched expansion
(:func:`repro.core.expand.expand_rows`), one chunk-wide stable argsort of
composite keys ``t * ncols + col`` (the fused k-way merge — within a row
this is exactly the per-row column sort), one ``searchsorted`` mask
intersection of the sorted stream, and one segmented collapse. The
complement variant is the same path with the intersection inverted. Chunks
are pre-split by :func:`repro.core.expand.fused_blocks` so composite keys
fit int64 and peak memory stays bounded.

**Per-row loop** — :func:`numeric_rows_loop` / :func:`symbolic_rows_loop`
keep the original paper-shaped row loop as the benchmark baseline
(``benchmarks/bench_chunk_fusion.py``) and to host the NInspect knob
(Algorithm 5), which decides how much mask inspection happens *before* an
element enters the heap:

* **Heap (NInspect=1)** — products enter the merge first and are filtered
  against the mask after: sort-then-filter. The fused path implements this
  order chunk-wide (filtering by key membership before or after the collapse
  is equivalent: all duplicates of a key share its membership), so fused and
  loop results are bit-identical.
* **HeapDot (NInspect=∞)** — full mask inspection up front means only
  provably-unmasked products enter the merge: filter-then-sort, a smaller
  sort in exchange for more inspection work. (The name: with the whole mask
  inspected per push the control flow approaches a dot-product per entry.)
  HeapDot stays per-row — it exists to measure the NInspect trade-off, which
  fusing away would erase.

The complement variant (NInspect forced to 0) sorts everything and keeps
the set difference S \\ m.
"""

from __future__ import annotations

import numpy as np

from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE
from .expand import (
    composite_keys,
    expand_row,
    expand_row_pattern,
    expand_rows,
    expand_rows_pattern,
    fused_blocks,
    mask_membership,
    per_row_flops,
    segment_reduce,
)
from .types import RowBlock, concat_blocks, empty_block, write_rows_into


def _collapse_sorted(bj_sorted: np.ndarray, prod_sorted: np.ndarray,
                     add_ufunc: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate equal-column runs of an already-sorted product stream —
    the heap algorithm's prevKey trick as a segmented reduction."""
    boundaries = np.empty(bj_sorted.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(bj_sorted[1:], bj_sorted[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return bj_sorted[starts], segment_reduce(prod_sorted, starts, add_ufunc)


def _mask_membership_row(keys: np.ndarray, m_cols: np.ndarray) -> np.ndarray:
    """Boolean membership of each key in the sorted mask row (binary search
    stands in for the reference tier's two-pointer co-iteration)."""
    if m_cols.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.searchsorted(m_cols, keys)
    pos[pos == m_cols.size] = 0
    return m_cols[pos] == keys


# --------------------------------------------------------------------- #
# chunk-fused passes (default)
# --------------------------------------------------------------------- #
def _fused_numeric(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                   rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, cols, vals = expand_rows(A, B, rows, semiring)
    if cols.size == 0:
        return empty_block(rows.size)
    # fused k-way merge: one stable argsort of composite keys sorts every
    # row's products by column while keeping equal columns in stream order
    keys = composite_keys(seg, cols, ncols)
    order = np.argsort(keys, kind="stable")
    ks, vs = keys[order], vals[order]
    keep = mask_membership(mask, rows, ks, ncols)
    if mask.complemented:
        np.logical_not(keep, out=keep)
    ks, vs = ks[keep], vs[keep]
    if ks.size == 0:
        return empty_block(rows.size)
    uk, uv = _collapse_sorted(ks, vs, semiring.add.ufunc)
    sizes = np.bincount(uk // ncols, minlength=rows.size).astype(INDEX_DTYPE)
    return RowBlock(sizes, (uk % ncols).astype(INDEX_DTYPE, copy=False), uv)


def _fused_symbolic(A: CSRMatrix, B: CSRMatrix, mask: Mask, rows: np.ndarray
                    ) -> np.ndarray:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return np.zeros(rows.size, dtype=INDEX_DTYPE)
    seg, cols = expand_rows_pattern(A, B, rows)
    if cols.size == 0:
        return np.zeros(rows.size, dtype=INDEX_DTYPE)
    ukeys = np.unique(composite_keys(seg, cols, ncols))
    keep = mask_membership(mask, rows, ukeys, ncols)
    if mask.complemented:
        np.logical_not(keep, out=keep)
    return np.bincount(ukeys[keep] // ncols,
                       minlength=rows.size).astype(INDEX_DTYPE)


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    """Chunk-fused Heap numeric pass (plain and complemented masks),
    bit-identical to :func:`numeric_rows_loop`."""
    return concat_blocks([_fused_numeric(A, B, mask, semiring, block)
                          for block in fused_blocks(A, B, rows)])


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    """Chunk-fused pattern-only pass: exact output nnz per requested row."""
    parts = [_fused_symbolic(A, B, mask, block)
             for block in fused_blocks(A, B, rows)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def numeric_rows_into(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray,
                      out_cols: np.ndarray, out_vals: np.ndarray,
                      offsets: np.ndarray) -> None:
    """Direct-write numeric pass (see :mod:`repro.core.types`): the sorted,
    collapsed block stream is row-grouped and column-sorted, so each fused
    block lands in the final CSR arrays with one slice copy."""
    write_rows_into(lambda b: _fused_numeric(A, B, mask, semiring, b),
                    fused_blocks(A, B, rows), offsets, out_cols, out_vals,
                    algorithm="heap")


# --------------------------------------------------------------------- #
# per-row loop (benchmark baseline + the NInspect knob)
# --------------------------------------------------------------------- #
def numeric_rows_loop(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray, *,
                      filter_first: bool = False) -> RowBlock:
    """``filter_first=False`` → Heap (NInspect=1); ``True`` → HeapDot
    (NInspect=∞). Complemented masks ignore the flag (NInspect=0)."""
    if mask.complemented:
        return _numeric_complement_loop(A, B, mask, semiring, rows)
    add_ufunc = semiring.add.ufunc

    mask_rnnz = np.diff(mask.indptr)
    bound = int(mask_rnnz[rows].sum())
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    pos = 0

    for t in range(rows.size):
        i = int(rows[t])
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        if m_cols.size == 0:
            continue
        bj, prod = expand_row(A, B, i, semiring)
        if bj.size == 0:
            continue
        if filter_first:
            # HeapDot: inspect the mask for every product, merge survivors.
            keep = _mask_membership_row(bj, m_cols)
            bj, prod = bj[keep], prod[keep]
            if bj.size == 0:
                continue
            order = np.argsort(bj, kind="stable")
            c, v = _collapse_sorted(bj[order], prod[order], add_ufunc)
        else:
            # Heap: merge everything, intersect the sorted stream with the mask.
            order = np.argsort(bj, kind="stable")
            bj_s, prod_s = bj[order], prod[order]
            keep = _mask_membership_row(bj_s, m_cols)
            bj_s, prod_s = bj_s[keep], prod_s[keep]
            if bj_s.size == 0:
                continue
            c, v = _collapse_sorted(bj_s, prod_s, add_ufunc)
        k = c.size
        out_cols[pos: pos + k] = c
        out_vals[pos: pos + k] = v
        sizes[t] = k
        pos += k
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def numeric_rows_heapdot(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                         rows: np.ndarray) -> RowBlock:
    return numeric_rows_loop(A, B, mask, semiring, rows, filter_first=True)


def _numeric_complement_loop(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                             semiring: Semiring, rows: np.ndarray) -> RowBlock:
    add_ufunc = semiring.add.ufunc
    flops = per_row_flops(A, B)
    bound = int(np.minimum(flops[rows], B.ncols).sum())
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    pos = 0

    for t in range(rows.size):
        i = int(rows[t])
        bj, prod = expand_row(A, B, i, semiring)
        if bj.size == 0:
            continue
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        order = np.argsort(bj, kind="stable")
        bj_s, prod_s = bj[order], prod[order]
        keep = ~_mask_membership_row(bj_s, m_cols)
        bj_s, prod_s = bj_s[keep], prod_s[keep]
        if bj_s.size == 0:
            continue
        c, v = _collapse_sorted(bj_s, prod_s, add_ufunc)
        k = c.size
        out_cols[pos: pos + k] = c
        out_vals[pos: pos + k] = v
        sizes[t] = k
        pos += k
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def symbolic_rows_loop(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                       rows: np.ndarray) -> np.ndarray:
    """Per-row pattern-only pass (the pre-fusion baseline)."""
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    for t in range(rows.size):
        i = int(rows[t])
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        bj = expand_row_pattern(A, B, i)
        if bj.size == 0:
            continue
        member = _mask_membership_row(bj, m_cols)
        keep = ~member if mask.complemented else member
        kept = bj[keep]
        sizes[t] = np.unique(kept).size
    return sizes
