"""Vectorized helpers shared by the push-based kernels.

The central primitive is *row expansion*: for output row i, gather the
column ids and values of every partial product ``A_ik ⊗ B_kj`` — i.e. the
concatenation of the scaled rows ``{A_ik · B_k* : A_ik ≠ 0}``. This is the
paper's memory-access patterns 1-3 (§4.2: unit-stride read of A's row,
random-like reads of B's row pointers, stanza-like reads of B's nonzeros)
collapsed into numpy gathers. What each algorithm then *does* with the
expanded stream (scatter into MSA/Hash/MCA, or merge/sort for Heap) is what
differentiates the kernels.

Two granularities are provided:

* :func:`expand_row` — one output row (the original per-row kernels);
* :func:`expand_rows` — a whole *chunk* of rows in one batched gather,
  returning a flat partial-product stream plus per-row segment offsets.
  This is the expansion half of the ESC (expand-sort-compress) strategy;
  the chunk-fused kernels (:mod:`repro.core.esc_kernel` and the fused MSA
  passes) build on it to run zero Python-per-row work.
"""

from __future__ import annotations

import numpy as np

from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE

_INT64_MAX = np.iinfo(np.int64).max
#: largest key value the int32 fast path may produce (keys range over
#: ``[0, chunk_rows * ncols)``, so the test is against the max key + 1)
_INT32_MAX = np.iinfo(np.int32).max


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat index array enumerating ``[starts[t], starts[t]+lens[t])`` for all t.

    Standard cumsum trick; O(total) with no Python loop. Empty ranges are
    handled (they contribute nothing).

    The step/cumsum arithmetic runs — and the result is returned — in int64
    regardless of ``INDEX_DTYPE``: a narrower dtype would silently wrap once
    the enumerated positions (e.g. ``B.indptr[-1]`` during expansion) exceed
    its range, and the intermediate cumsum can overflow even earlier.
    """
    lens = np.asarray(lens)
    total = int(lens.sum(dtype=np.int64))
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nz = lens > 0
    s = np.asarray(starts)[nz].astype(np.int64, copy=False)
    l = lens[nz].astype(np.int64, copy=False)
    step = np.ones(total, dtype=np.int64)
    step[0] = s[0]
    ends = np.cumsum(l)[:-1]
    step[ends] = s[1:] - (s[:-1] + l[:-1] - 1)
    return np.cumsum(step)


def expand_row(A: CSRMatrix, B: CSRMatrix, i: int, semiring: Semiring
               ) -> tuple[np.ndarray, np.ndarray]:
    """All partial products of output row ``i``: ``(col_ids, values)``.

    Products appear grouped by k (i.e. in B-row order), each group sorted by
    column — the exact order a sequential Gustavson loop would generate them.
    """
    lo, hi = A.indptr[i], A.indptr[i + 1]
    a_cols = A.indices[lo:hi]
    a_vals = A.data[lo:hi]
    starts = B.indptr[a_cols]
    lens = B.indptr[a_cols + 1] - starts
    flat = concat_ranges(starts, lens)
    bj = B.indices[flat]
    bv = B.data[flat]
    av = np.repeat(a_vals, lens)
    return bj, semiring.multiply(av, bv)


def expand_row_pattern(A: CSRMatrix, B: CSRMatrix, i: int) -> np.ndarray:
    """Column ids only — the symbolic-phase version of :func:`expand_row`."""
    lo, hi = A.indptr[i], A.indptr[i + 1]
    a_cols = A.indices[lo:hi]
    starts = B.indptr[a_cols]
    lens = B.indptr[a_cols + 1] - starts
    return B.indices[concat_ranges(starts, lens)]


# --------------------------------------------------------------------- #
# chunk-fused expansion (whole row-chunks, no Python-per-row work)
# --------------------------------------------------------------------- #
def _gather_rows(indptr: np.ndarray, rows: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of every stored entry of ``rows`` plus per-row lengths."""
    starts = indptr[rows]
    lens = (indptr[rows + 1] - starts).astype(np.int64, copy=False)
    return concat_ranges(starts, lens), lens


def row_segments(lens: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of per-row lengths: ``seg[t]..seg[t+1]`` brackets
    row t's slice of a flattened chunk stream. Always int64."""
    seg = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=seg[1:])
    return seg


def expand_rows(A: CSRMatrix, B: CSRMatrix, rows: np.ndarray,
                semiring: Semiring) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All partial products of an entire chunk of output rows in one batched
    gather: ``(row_seg_offsets, cols, vals)``.

    ``row_seg_offsets`` has ``rows.size + 1`` entries; the products of the
    t-th requested row occupy ``cols[seg[t]:seg[t+1]]`` / ``vals[...]`` in
    exactly the order :func:`expand_row` would produce them (grouped by k,
    each group sorted by column). No per-row Python work: two
    :func:`concat_ranges` passes cover the whole chunk.
    """
    a_sel, a_lens = _gather_rows(A.indptr, rows)
    a_cols = A.indices[a_sel]
    b_starts = B.indptr[a_cols]
    b_lens = (B.indptr[a_cols + 1] - b_starts).astype(np.int64, copy=False)
    flat = concat_ranges(b_starts, b_lens)
    cols = B.indices[flat]
    vals = semiring.multiply(np.repeat(A.data[a_sel], b_lens), B.data[flat])
    # fold per-A-entry product counts into per-row counts via the same
    # prefix-sum trick (b_lens segments delimited by each row's A entries)
    prod_csum = row_segments(b_lens)
    seg = prod_csum[row_segments(a_lens)]
    return seg, cols, vals


def expand_rows_pattern(A: CSRMatrix, B: CSRMatrix, rows: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Column ids only — the symbolic-phase version of :func:`expand_rows`."""
    a_sel, a_lens = _gather_rows(A.indptr, rows)
    a_cols = A.indices[a_sel]
    b_starts = B.indptr[a_cols]
    b_lens = (B.indptr[a_cols + 1] - b_starts).astype(np.int64, copy=False)
    cols = B.indices[concat_ranges(b_starts, b_lens)]
    seg = row_segments(b_lens)[row_segments(a_lens)]
    return seg, cols


def flatten_rows_pattern(indptr: np.ndarray, indices: np.ndarray,
                         rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the selected rows of a CSR pattern (typically the mask) into
    one stream: ``(row_seg_offsets, cols)``."""
    sel, lens = _gather_rows(indptr, rows)
    return row_segments(lens), indices[sel]


def composite_keys(seg: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Fuse (chunk-local row, column) into one sortable key ``t * ncols +
    col``. Callers must have bounded the chunk with :func:`key_safe_blocks`
    so the keys cannot overflow int64.

    Keys are **int32 whenever the chunk's key space fits** (``chunk_rows ×
    ncols < 2^31``) — which the cache-budget chunk sizing guarantees in
    practice — halving the traffic of every downstream sort/searchsorted
    pass; the int64 fallback covers huge chunks. The dtype is a pure
    function of ``(seg.size, ncols)``, so the two key streams every fused
    kernel intersects (products and flattened mask, built over the same
    rows) always agree.
    """
    nrows_chunk = seg.size - 1
    # max(…, 1): a zero-row chunk must not pick int32 for a cast-unsafe
    # ncols (the arrays are empty either way, but np.int32(ncols) is not)
    dtype = (np.int32 if max(nrows_chunk, 1) * int(ncols) <= _INT32_MAX
             else np.int64)
    prow = np.repeat(np.arange(nrows_chunk, dtype=dtype), np.diff(seg))
    return prow * dtype(ncols) + cols.astype(dtype, copy=False)


def sorted_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``needles`` occur in the *sorted* ``haystack``?

    One ``searchsorted`` with the insertion point clamped to the last slot:
    a needle past the end then compares against the largest haystack entry
    and correctly reads as absent. ``needles`` need not be sorted.
    """
    if haystack.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.minimum(np.searchsorted(haystack, needles), haystack.size - 1)
    return haystack[pos] == needles


def mask_membership(mask, rows: np.ndarray, keys: np.ndarray, ncols: int
                    ) -> np.ndarray:
    """Boolean membership of composite ``keys`` in the chunk's flattened mask
    keys — one searchsorted for the whole chunk. Shared by every chunk-fused
    kernel (ESC's post-compress filter, heap's sorted-stream intersection)."""
    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size == 0:
        return np.zeros(keys.size, dtype=bool)
    mkeys = composite_keys(mseg, mcols, ncols)
    return sorted_membership(mkeys, keys)


def segment_reduce(vals: np.ndarray, starts: np.ndarray,
                   add: np.ufunc) -> np.ndarray:
    """Reduce the runs of ``vals`` that begin at ``starts`` (ascending,
    ``starts[0] == 0``) with the monoid ``add``, strictly left to right.

    ``np.add.reduceat`` is not sequential: it sums a run as
    ``v0 + (v1 + v2 + ...)``, so a float sum of three or more partial
    products can differ in the last bit from a Gustavson loop. Float64
    ``+`` therefore scatters through ``np.bincount`` (the msa kernel's
    accumulation); min, max and the boolean monoids are exact in any
    order and keep ``reduceat``.
    """
    if add is not np.add or vals.dtype != np.float64:
        return add.reduceat(vals, starts)
    seg = np.zeros(vals.size, dtype=np.intp)
    seg[starts[1:]] = 1
    np.cumsum(seg, out=seg)
    return np.bincount(seg, weights=vals, minlength=starts.size)


def key_safe_blocks(rows: np.ndarray, ncols: int) -> list[np.ndarray]:
    """Split a chunk so ``chunk_rows * ncols`` composite keys fit in int64.

    In practice one block: the guard only bites at ``rows.size * ncols >
    2^63``, but silent key wraparound would corrupt results, so the fused
    kernels always go through here.
    """
    limit = int(_INT64_MAX // max(ncols, 1))
    if rows.size <= limit:
        return [rows]
    return [rows[i:i + limit] for i in range(0, rows.size, limit)]


#: Partial-product budget per fused block: intermediates are O(stream), so
#: unbounded chunks on long-row inputs would trade the per-row kernels'
#: O(ncols) workspace for gigabytes of keys/values. ~1M products keeps the
#: fused working set in the tens of MB while leaving short-row chunks whole.
FUSE_FLOPS_BUDGET = 1 << 20


def fused_blocks(A: CSRMatrix, B: CSRMatrix, rows: np.ndarray, *,
                 max_flops: int = FUSE_FLOPS_BUDGET) -> list[np.ndarray]:
    """Split a chunk for fused execution: composite keys must fit int64
    (:func:`key_safe_blocks`) and each block's partial-product stream stays
    ≤ ``max_flops`` (single rows may exceed it — a block is never empty), so
    peak memory is bounded no matter how long the rows are.
    """
    out: list[np.ndarray] = []
    for kb in key_safe_blocks(rows, B.ncols):
        if kb.size == 0:
            out.append(kb)
            continue
        off = row_segments(chunk_flops(A, B, kb))  # flops prefix sum
        if off[-1] <= max_flops:
            out.append(kb)
            continue
        start = 0
        while start < kb.size:
            end = int(np.searchsorted(off, off[start] + max_flops,
                                      side="right")) - 1
            end = min(max(end, start + 1), kb.size)
            out.append(kb[start:end])
            start = end
    return out


def per_row_flops(A: CSRMatrix, B: CSRMatrix) -> np.ndarray:
    """Number of partial products per output row:
    ``flops_i = Σ_{k: A_ik ≠ 0} nnz(B_k*)`` (one multiply each; the common
    "2·flops" convention doubles this for the adds — see
    :mod:`repro.bench.metrics`)."""
    lens = np.diff(B.indptr)[A.indices] if A.nnz else np.empty(0, dtype=INDEX_DTYPE)
    csum = np.concatenate([[0], np.cumsum(lens)])
    return (csum[A.indptr[1:]] - csum[A.indptr[:-1]]).astype(INDEX_DTYPE)


def chunk_flops(A: CSRMatrix, B: CSRMatrix, rows: np.ndarray) -> np.ndarray:
    """``per_row_flops(A, B)[rows]`` (int64), counted from the requested
    rows' entries alone: O(nnz of those rows) instead of O(nnz(A)), which
    is what a per-chunk caller wants."""
    if rows.size and (int(rows[-1]) - int(rows[0]) == rows.size - 1
                      and (rows.size == 1
                           or bool(np.all(np.diff(rows) == 1)))):
        # contiguous chunk (the runner's usual shape): slice A's entries
        # directly instead of running the concat_ranges gather
        a_cols = A.indices[int(A.indptr[rows[0]]): int(A.indptr[rows[-1] + 1])]
        a_lens = (A.indptr[rows + 1] - A.indptr[rows]).astype(np.int64,
                                                              copy=False)
    else:
        a_sel, a_lens = _gather_rows(A.indptr, rows)
        a_cols = A.indices[a_sel]
    b_lens = (B.indptr[a_cols + 1] - B.indptr[a_cols]).astype(np.int64,
                                                              copy=False)
    return np.diff(row_segments(b_lens)[row_segments(a_lens)])


def total_flops(A: CSRMatrix, B: CSRMatrix) -> int:
    """``flops(AB)`` — total multiply count of the unmasked product."""
    if A.nnz == 0:
        return 0
    return int(np.diff(B.indptr)[A.indices].sum())
