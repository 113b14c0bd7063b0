"""Vectorized MCA (Mask Compressed Accumulator) kernel — paper §5.4.

The accumulator arrays have length ``nnz(m)`` and are indexed by *mask
rank*. The reference implementation computes ranks by co-iterating the
sorted mask with each sorted B row (Algorithm 3's two-pointer merge); the
vectorized tier computes the same ranks for a whole row's product stream at
once with ``np.searchsorted`` — a batched binary search that preserves MCA's
defining property (accumulator footprint proportional to nnz(m), not ncols).

MCA has no complement variant (see
:meth:`repro.accumulators.mca.MCAAccumulator.complement_unsupported`).
"""

from __future__ import annotations

import numpy as np

from ..accumulators.mca import MCAAccumulator
from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _sorted_unique
from ..validation import INDEX_DTYPE
from .expand import expand_row, expand_row_pattern
from .types import RowBlock


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    if mask.complemented:
        raise MCAAccumulator.complement_unsupported()
    identity = semiring.identity
    add_at = semiring.add.ufunc.at

    mask_rnnz = np.diff(mask.indptr)
    max_m = int(mask_rnnz[rows].max(initial=0))
    values = np.empty(max_m, dtype=np.float64)
    touched = np.zeros(max_m, dtype=bool)

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
        nm = m_cols.size
        ranks = np.searchsorted(m_cols, bj)
        ranks[ranks == nm] = 0  # clamp; validity re-checked below
        valid = m_cols[ranks] == bj
        r = ranks[valid]
        values[:nm][_sorted_unique(r)] = identity  # init only hit ranks
        add_at(values, r, prod[valid])
        touched[r] = True
        hit = touched[:nm]
        c = m_cols[hit]
        k = c.size
        out_cols[pos: pos + k] = c
        out_vals[pos: pos + k] = values[:nm][hit]
        sizes[t] = k
        pos += k
        touched[:nm] = False
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    if mask.complemented:
        raise MCAAccumulator.complement_unsupported()
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    for t in range(rows.size):
        i = int(rows[t])
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        if m_cols.size == 0:
            continue
        bj = expand_row_pattern(A, B, i)
        if bj.size == 0:
            continue
        ranks = np.searchsorted(m_cols, bj)
        ranks[ranks == m_cols.size] = 0
        valid = m_cols[ranks] == bj
        sizes[t] = _sorted_unique(ranks[valid]).size
    return sizes
