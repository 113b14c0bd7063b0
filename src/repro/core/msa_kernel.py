"""Vectorized MSA (Masked Sparse Accumulator) kernel — paper §5.2.

Two execution strategies share this module:

**Chunk-fused (default)** — :func:`numeric_rows` / :func:`symbolic_rows`
process an entire chunk of rows with flat numpy passes and zero
Python-per-row work. The dense per-row ``states``/``values`` workspaces are
replaced by an accumulator indexed by *chunk-wide mask rank*: one batched
expansion (:func:`repro.core.expand.expand_rows`), one ``searchsorted`` of
the products' composite keys ``t * ncols + col`` against the mask's
flattened keys (the MSA "allowed" test for the whole chunk at once), then
one scatter-accumulate of every selected product — ``np.bincount`` when
the additive monoid is ``+`` (``np.add.at`` is notoriously slow), generic
``ufunc.at`` otherwise — and one gather of all mask hits. The complement
variant scatters the surviving (non-banned) products into
``np.unique``-compressed key space instead. Where ESC
(:mod:`repro.core.esc_kernel`) sorts first and masks the compressed
stream, fused MSA masks first and scatters — same flat-pass structure,
opposite order, no sort on the plain-mask path.

Fused intermediates are O(partial products), so chunks are pre-split by
:func:`repro.core.expand.fused_blocks` — composite keys must fit int64 and
each block's product stream stays under ``FUSE_FLOPS_BUDGET``, keeping
peak memory bounded on long-row inputs where the old dense workspaces
were only O(ncols).

**Per-row loop** — :func:`numeric_rows_loop` keeps the paper-shaped row
loop over Algorithm 2's three MSA steps (dense states array, scatter,
mask-order gather). It is the ``msa-loop`` routing tier: rows long enough
to amortize its per-row dispatch cost run faster here than through the
fused passes' chunk-wide key streams
(:data:`repro.core.registry.LOOP_ROW_FLOPS`).
Its accumulation also takes the ``np.bincount`` fast path for
``+``-monoid semirings (PLUS_TIMES, PLUS_PAIR, ...), scattering into
mask-rank space instead of calling ``np.add.at`` on the dense values
array. Its symbolic pass is the fused :func:`symbolic_rows`.
"""

from __future__ import annotations

import numpy as np

from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _sorted_unique
from ..validation import INDEX_DTYPE
from .expand import (
    chunk_flops,
    composite_keys,
    expand_row,
    expand_rows,
    expand_rows_pattern,
    flatten_rows_pattern,
    fused_blocks,
    sorted_membership,
)
from .types import RowBlock, concat_blocks, empty_block, write_rows_into

_NOTALLOWED, _ALLOWED, _SET = 0, 1, 2


# --------------------------------------------------------------------- #
# chunk-fused passes (default)
# --------------------------------------------------------------------- #
def _fused_numeric(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                   rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, bj, prod = expand_rows(A, B, rows, semiring)
    if bj.size == 0:
        return empty_block(rows.size)
    m_prow = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(mseg))
    # composite_keys on both streams: same (rows, ncols) → same dtype, so
    # the membership searchsorted runs on int32 whenever the product keys do
    mkeys = composite_keys(mseg, mcols, ncols)
    keys = composite_keys(seg, bj, ncols)
    # chunk-wide ALLOWED test: product key present in the mask stream?
    allowed = sorted_membership(mkeys, keys)
    ranks = np.searchsorted(mkeys, keys[allowed])
    touched = np.zeros(mkeys.size, dtype=bool)
    touched[ranks] = True
    add = semiring.add.ufunc
    if add is np.add:
        acc = np.bincount(ranks, weights=prod[allowed], minlength=mkeys.size)
    else:
        acc = np.full(mkeys.size, semiring.identity)
        with np.errstate(invalid="ignore"):  # NaN products are legal data
            add.at(acc, ranks, prod[allowed])
    sizes = np.bincount(m_prow[touched],
                        minlength=rows.size).astype(INDEX_DTYPE)
    # mkeys ascend, so the touched gather is row-grouped and column-sorted
    return RowBlock(sizes, mcols[touched], acc[touched])


def _fused_numeric_complement(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                              semiring: Semiring, rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, bj, prod = expand_rows(A, B, rows, semiring)
    if bj.size == 0:
        return empty_block(rows.size)
    keys = composite_keys(seg, bj, ncols)
    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size:
        mkeys = composite_keys(mseg, mcols, ncols)
        sel = ~sorted_membership(mkeys, keys)  # keep products *outside* the mask
        keys, prod = keys[sel], prod[sel]
    if keys.size == 0:
        return empty_block(rows.size)
    # the inserted-keys set is discovered by compression (np.unique), then
    # everything scatters into rank space in stream (= Gustavson) order
    ukeys, inv = np.unique(keys, return_inverse=True)
    add = semiring.add.ufunc
    if add is np.add:
        acc = np.bincount(inv, weights=prod)
    else:
        acc = np.full(ukeys.size, semiring.identity)
        with np.errstate(invalid="ignore"):
            add.at(acc, inv, prod)
    sizes = np.bincount(ukeys // ncols, minlength=rows.size).astype(INDEX_DTYPE)
    return RowBlock(sizes, (ukeys % ncols).astype(INDEX_DTYPE, copy=False), acc)


def _fused_symbolic(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                    rows: np.ndarray) -> np.ndarray:
    ncols = B.ncols
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    if rows.size == 0 or ncols == 0:
        return sizes
    if mask.complemented:
        seg, bj = expand_rows_pattern(A, B, rows)
        if bj.size == 0:
            return sizes
        keys = _sorted_unique(composite_keys(seg, bj, ncols))
        mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
        if mcols.size:
            mkeys = composite_keys(mseg, mcols, ncols)
            keys = keys[~sorted_membership(mkeys, keys)]
        return np.bincount(keys // ncols, minlength=rows.size).astype(INDEX_DTYPE)

    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size == 0:
        return sizes
    seg, bj = expand_rows_pattern(A, B, rows)
    if bj.size == 0:
        return sizes
    m_prow = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(mseg))
    mkeys = composite_keys(mseg, mcols, ncols)  # dtype matches `keys`
    keys = composite_keys(seg, bj, ncols)
    allowed = sorted_membership(mkeys, keys)
    touched = np.zeros(mkeys.size, dtype=bool)
    touched[np.searchsorted(mkeys, keys[allowed])] = True
    return np.bincount(m_prow[touched],
                       minlength=rows.size).astype(INDEX_DTYPE)


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    """Chunk-fused MSA numeric pass (per-row semantics preserved exactly)."""
    fn = _fused_numeric_complement if mask.complemented else _fused_numeric
    return concat_blocks([fn(A, B, mask, semiring, block)
                          for block in fused_blocks(A, B, rows)])


def numeric_rows_into(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray,
                      out_cols: np.ndarray, out_vals: np.ndarray,
                      offsets: np.ndarray) -> None:
    """Direct-write numeric pass (see :mod:`repro.core.types`): the fused
    gathers emit each block row-grouped and column-sorted (mask keys ascend;
    the complement's unique-compressed keys ascend), so blocks land in the
    final CSR arrays with one slice copy each."""
    fn = _fused_numeric_complement if mask.complemented else _fused_numeric
    write_rows_into(lambda b: fn(A, B, mask, semiring, b),
                    fused_blocks(A, B, rows), offsets, out_cols, out_vals,
                    algorithm="msa")


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    """Chunk-fused pattern-only pass: exact output nnz per requested row."""
    parts = [_fused_symbolic(A, B, mask, block)
             for block in fused_blocks(A, B, rows)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# --------------------------------------------------------------------- #
# per-row loop (the msa-loop routing tier)
# --------------------------------------------------------------------- #
def numeric_rows_loop(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray) -> RowBlock:
    """Original per-row MSA loop: Algorithm 2's three steps per output row.

    ``+``-monoid semirings accumulate via ``np.bincount`` over mask-rank
    space (products mapped by a per-row ``searchsorted``) instead of
    ``np.add.at`` on the dense values array; other monoids keep the dense
    scatter.
    """
    if mask.complemented:
        return _numeric_complement_loop(A, B, mask, semiring, rows)
    ncols = B.ncols
    states = np.zeros(ncols, dtype=np.int8)
    values = np.empty(ncols, dtype=np.float64)
    identity = semiring.identity
    add = semiring.add.ufunc
    fast_add = add is np.add

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
        states[m_cols] = _ALLOWED
        sel = states[bj] != _NOTALLOWED
        bj_s = bj[sel]
        if fast_add:
            r = np.searchsorted(m_cols, bj_s)  # bj_s ⊆ m_cols by the sel test
            hit = np.bincount(r, minlength=m_cols.size).astype(bool)
            c = m_cols[hit]
            v = np.bincount(r, weights=prod[sel], minlength=m_cols.size)[hit]
        else:
            values[m_cols] = identity
            with np.errstate(invalid="ignore"):
                add.at(values, bj_s, prod[sel])
            states[bj_s] = _SET
            hit = states[m_cols] == _SET
            c = m_cols[hit]
            v = values[c]
        k = c.size
        out_cols[pos: pos + k] = c
        out_vals[pos: pos + k] = v
        sizes[t] = k
        pos += k
        states[m_cols] = _NOTALLOWED  # reset only touched entries
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())


def _numeric_complement_loop(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                             semiring: Semiring, rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    banned = np.zeros(ncols, dtype=bool)
    values = np.empty(ncols, dtype=np.float64)
    identity = semiring.identity
    add = semiring.add.ufunc
    fast_add = add is np.add

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
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        banned[m_cols] = True
        sel = ~banned[bj]
        bj_s = bj[sel]
        if bj_s.size:
            if fast_add:
                touched, inv = np.unique(bj_s, return_inverse=True)
                v = np.bincount(inv, weights=prod[sel])
            else:
                touched = _sorted_unique(bj_s)  # sorted inserted-keys set
                values[touched] = identity
                with np.errstate(invalid="ignore"):
                    add.at(values, bj_s, prod[sel])
                v = values[touched]
            k = touched.size
            out_cols[pos: pos + k] = touched
            out_vals[pos: pos + k] = v
            sizes[t] = k
            pos += k
        banned[m_cols] = False
    return RowBlock(sizes, out_cols[:pos].copy(), out_vals[:pos].copy())
