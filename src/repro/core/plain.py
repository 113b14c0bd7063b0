"""Plain (unmasked) SpGEMM — Gustavson row-by-row with a dense SPA.

This is Algorithm 1 of the paper: the computational strawman the masked
kernels are measured against, and the first half of the multiply-then-mask
baseline (:mod:`repro.core.baselines`). It accumulates *every* partial
product — flops(AB) work regardless of how few entries the mask would keep.
"""

from __future__ import annotations

import numpy as np

from ..semiring import PLUS_TIMES, Semiring
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _sorted_unique
from ..validation import INDEX_DTYPE, check_multiplicable
from .expand import chunk_flops, expand_row, expand_row_pattern
from .types import RowBlock, stitch_blocks


def numeric_rows(A: CSRMatrix, B: CSRMatrix, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    """Unmasked Gustavson over a dense SPA (values + touched set via sort)."""
    ncols = B.ncols
    values = np.empty(ncols, dtype=np.float64)
    identity = semiring.identity
    add_at = semiring.add.ufunc.at

    bound = int(np.minimum(chunk_flops(A, B, rows), ncols).sum())
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    pos = 0

    for t in range(rows.size):
        i = int(rows[t])
        bj, prod = expand_row(A, B, i, semiring)
        if bj.size == 0:
            continue
        touched = _sorted_unique(bj)
        values[touched] = identity
        add_at(values, bj, prod)
        k = touched.size
        out_cols[pos: pos + k] = touched
        out_vals[pos: pos + k] = values[touched]
        sizes[t] = k
        pos += k
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, rows: np.ndarray) -> np.ndarray:
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    for t in range(rows.size):
        i = int(rows[t])
        bj = expand_row_pattern(A, B, i)
        if bj.size:
            sizes[t] = _sorted_unique(bj).size
    return sizes


def plain_spgemm(A: CSRMatrix, B: CSRMatrix,
                 semiring: Semiring = PLUS_TIMES) -> CSRMatrix:
    """Unmasked C = A·B (one-phase, serial)."""
    shape = check_multiplicable(A.shape, B.shape)
    rows = np.arange(shape[0], dtype=INDEX_DTYPE)
    block = numeric_rows(A, B, semiring, rows)
    return stitch_blocks([block], shape[0], shape[1])


def plain_spgemm_scipy(A: CSRMatrix, B: CSRMatrix,
                       semiring: Semiring = PLUS_TIMES) -> CSRMatrix:
    """Unmasked product through scipy's compiled SpGEMM (PLUS_TIMES and
    PLUS_PAIR only — scipy has no semiring support; PLUS_PAIR is emulated by
    multiplying the 0/1 patterns). Used by the ``saxpy-scipy`` baseline."""
    from ..errors import AlgorithmError
    from ..sparse.convert import from_scipy, to_scipy

    if semiring.name == "plus_pair":
        A, B = A.pattern(), B.pattern()
    elif semiring.name == "plus_first":
        B = B.pattern()
    elif semiring.name == "plus_second":
        A = A.pattern()
    elif semiring.name not in ("plus_times", "arithmetic"):
        raise AlgorithmError(
            f"scipy baseline supports plus_times/plus_pair/plus_first/"
            f"plus_second, not {semiring.name!r}"
        )
    return from_scipy(to_scipy(A) @ to_scipy(B))
