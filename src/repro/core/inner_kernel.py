"""Vectorized pull-based Inner kernel — paper §4.1.

For every unmasked output entry ``(i, j)`` compute the sparse dot product
``A_i* · B_*j`` — "most efficiently implemented when A is stored in CSR and
B is stored in CSC". The vectorized tier batches all of row i's dots at
once: it concatenates the CSC columns selected by the mask row, intersects
the whole stream with the sorted ``A_i*`` via one binary-search pass, and
segment-sums the matching products per mask entry.

An output entry is produced only when at least one index pair matched —
a zero-term dot yields *no* stored entry (the mask "may contain entries for
which the multiplication does not produce an output", Fig. 1).

Complemented masks are rejected: over a CSR mask a pull algorithm would
need a dot per *absent* entry, O(ncols) dots per row. The paper likewise
never runs Inner with complemented masks (it is excluded from
Betweenness Centrality). That objection is about the CSR form: on a
complemented *bitmap* the absent entries of a row are its zero bytes,
which a word scan lists cheaply, and the compiled pull ``msa-pull``
(:mod:`repro.native.kernels`) runs exactly that, bit-identically to
MSA — BC's ``auto`` pulls the BFS levels where it costs less.
"""

from __future__ import annotations

import numpy as np

from ..errors import MaskError
from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _sorted_unique
from ..validation import INDEX_DTYPE
from .expand import concat_ranges
from .types import RowBlock


def _check_not_complemented(mask: Mask) -> None:
    if mask.complemented:
        raise MaskError(
            "the pull-based Inner algorithm does not support complemented "
            "masks (it would require a dot product per absent output entry)"
        )


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray, *, b_csc: CSCMatrix | None = None) -> RowBlock:
    """``b_csc`` lets callers amortize the CSR→CSC conversion across calls;
    when omitted it is performed here (and its cost belongs to the caller's
    timing — the paper counts B's transposition against the dot algorithms)."""
    _check_not_complemented(mask)
    if b_csc is None:
        b_csc = B.to_csc()
    identity = semiring.identity
    add_at = semiring.add.ufunc.at

    mask_rnnz = np.diff(mask.indptr)
    max_m = int(mask_rnnz[rows].max(initial=0))
    acc = np.empty(max_m, dtype=np.float64)
    hits = np.zeros(max_m, dtype=np.int64)

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
        lo, hi = A.indptr[i], A.indptr[i + 1]
        a_cols = A.indices[lo:hi]
        a_vals = A.data[lo:hi]
        if a_cols.size == 0:
            continue
        nm = m_cols.size
        # concatenate the mask-selected CSC columns of B
        starts = b_csc.indptr[m_cols]
        lens = b_csc.indptr[m_cols + 1] - starts
        flat = concat_ranges(starts, lens)
        seg_rows = b_csc.indices[flat]      # row ids within each column
        seg_vals = b_csc.data[flat]
        seg_ids = np.repeat(np.arange(nm, dtype=np.int64), lens)
        # one binary-search intersection of the whole stream with A_i*
        p = np.searchsorted(a_cols, seg_rows)
        p[p == a_cols.size] = 0
        match = a_cols[p] == seg_rows
        contrib = semiring.multiply(a_vals[p[match]], seg_vals[match])
        acc[:nm] = identity
        hits[:nm] = 0
        ids = seg_ids[match]
        add_at(acc, ids, contrib)
        np.add.at(hits, ids, 1)
        produced = hits[:nm] > 0
        c = m_cols[produced]
        k = c.size
        out_cols[pos: pos + k] = c
        out_vals[pos: pos + k] = acc[:nm][produced]
        sizes[t] = k
        pos += k
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, rows: np.ndarray,
                  *, b_csc: CSCMatrix | None = None) -> np.ndarray:
    """Pattern-only pass: count mask entries whose dot has ≥ 1 term."""
    _check_not_complemented(mask)
    if b_csc is None:
        b_csc = B.to_csc()
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    for t in range(rows.size):
        i = int(rows[t])
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        if m_cols.size == 0:
            continue
        lo, hi = A.indptr[i], A.indptr[i + 1]
        a_cols = A.indices[lo:hi]
        if a_cols.size == 0:
            continue
        nm = m_cols.size
        starts = b_csc.indptr[m_cols]
        lens = b_csc.indptr[m_cols + 1] - starts
        flat = concat_ranges(starts, lens)
        seg_rows = b_csc.indices[flat]
        seg_ids = np.repeat(np.arange(nm, dtype=np.int64), lens)
        p = np.searchsorted(a_cols, seg_rows)
        p[p == a_cols.size] = 0
        match = a_cols[p] == seg_rows
        sizes[t] = _sorted_unique(seg_ids[match]).size
    return sizes
