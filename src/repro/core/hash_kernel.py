"""Vectorized Hash-accumulator kernel — paper §5.3.

A real open-addressing hash table (linear probing, load factor 0.25, no
mid-row resizing) operated in numpy batches: probe loops iterate over the
*unresolved remainder* of the batch, so the expected number of passes is the
expected probe length (≈1.1 at LF 0.25) rather than the batch size.

:func:`numeric_rows` / :func:`symbolic_rows` batch the probe loop across
*all rows of a chunk* via per-row table offsets: each row owns a region
``[bases[t], bases[t] + caps[t])`` of one flat table (``caps[t]`` the row's
power-of-two capacity at LF 0.25), and every probe carries its row's base
and capacity mask, so a single batched probe loop resolves the whole
chunk's inserts/lookups in ~probe-length passes total instead of
~probe-length passes *per row*. Accumulation is one scatter over the
chunk's product stream (``np.bincount`` for ``+`` monoids, generic
``ufunc.at`` otherwise) — per-slot accumulation order equals stream
(Gustavson) order either way, so results are bit-identical to the
reference tier's per-row hash accumulator
(:func:`repro.core.reference.spgevm_hash`). Chunks are pre-split by
:func:`repro.core.expand.fused_blocks`, bounding the table and stream
working set.

The table arrays give hash the "smaller memory footprint than MSA" the
paper credits it with — O(nnz(mask)) per chunk rather than O(ncols) —
in exchange for hashing on every access.
"""

from __future__ import annotations

import numpy as np

from ..mask import Mask
from ..semiring import Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE
from .expand import (
    expand_rows,
    expand_rows_pattern,
    flatten_rows_pattern,
    fused_blocks,
    row_segments,
)
from .types import RowBlock, concat_blocks, empty_block, write_rows_into

_EMPTY = np.int64(-1)
_HASH_SCAL = np.uint64(0x9E3779B97F4A7C15)


def _hash_values(keys: np.ndarray) -> np.ndarray:
    """Pre-mask hash values; callers apply per-row capacity masks."""
    return ((keys.astype(np.uint64) * _HASH_SCAL) >> np.uint64(32)
            ).astype(np.int64)


def _row_capacities(nkeys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.accumulators.hash_acc.table_capacity`:
    power-of-two region capacity at LF 0.25 per row; rows with no keys own
    no region (capacity 0) and must be filtered by the caller."""
    caps = np.zeros(nkeys.size, dtype=np.int64)
    nz = np.asarray(nkeys) > 0
    if not nz.any():
        return caps
    need = np.asarray(nkeys)[nz].astype(np.int64) * 4  # LF 0.25, min 4
    c = np.int64(1) << np.ceil(np.log2(need)).astype(np.int64)
    c[c < need] <<= 1  # guard against float-log rounding
    caps[nz] = c
    return caps


def _insert_distinct_batch(keys: np.ndarray, bases: np.ndarray,
                           cap_masks: np.ndarray, table_keys: np.ndarray
                           ) -> np.ndarray:
    """Insert keys (distinct within each row's region) into the flat table;
    return each key's slot. One batched linear-probe loop for the whole
    chunk: each pass claims the first contender per empty slot and advances
    the rest within their own regions."""
    n = keys.size
    slots = bases + (_hash_values(keys) & cap_masks)
    result = np.empty(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    while pending.size:
        s = slots[pending]
        occupant = table_keys[s]
        free = occupant == _EMPTY
        if free.any():
            f_idx = pending[free]
            f_slots = s[free]
            uniq_slots, first = np.unique(f_slots, return_index=True)
            winners = f_idx[first]
            table_keys[uniq_slots] = keys[winners]
            result[winners] = uniq_slots
            lost = np.ones(f_idx.size, dtype=bool)
            lost[first] = False
            losers = f_idx[lost]
        else:
            losers = pending[:0]
        occupied = pending[~free]
        nxt = np.concatenate([losers, occupied])
        slots[nxt] = bases[nxt] + ((slots[nxt] - bases[nxt] + 1)
                                   & cap_masks[nxt])
        pending = nxt
    return result


def _lookup_batch(keys: np.ndarray, bases: np.ndarray, cap_masks: np.ndarray,
                  table_keys: np.ndarray) -> np.ndarray:
    """Slot of each key within its row's region, or -1 when the probe chain
    hits an empty slot (key not in the table — i.e. masked out)."""
    n = keys.size
    slots = bases + (_hash_values(keys) & cap_masks)
    found = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    while pending.size:
        s = slots[pending]
        occupant = table_keys[s]
        hit = occupant == keys[pending]
        found[pending[hit]] = s[hit]
        cont = ~hit & (occupant != _EMPTY)
        nxt = pending[cont]
        slots[nxt] = bases[nxt] + ((slots[nxt] - bases[nxt] + 1)
                                   & cap_masks[nxt])
        pending = nxt
    return found


def _insert_or_accumulate_batch(keys: np.ndarray, vals: np.ndarray,
                                bases: np.ndarray, cap_masks: np.ndarray,
                                t_keys: np.ndarray, t_vals: np.ndarray,
                                t_banned: np.ndarray, add_ufunc: np.ufunc,
                                identity: float) -> np.ndarray:
    """Complement-mask product insertion, batched across the chunk:
    accumulate into existing slots, claim empty slots (first contender in
    stream order wins; the rest retry and then match), drop keys landing on
    banned (mask) slots. Same-key products always travel in the same pending
    subset, so per-slot accumulation stays in stream order — bit-identical
    to the reference tier. Returns the slots claimed by products."""
    n = keys.size
    slots = bases + (_hash_values(keys) & cap_masks)
    pending = np.arange(n, dtype=np.int64)
    claimed_all: list[np.ndarray] = []
    while pending.size:
        s = slots[pending]
        occupant = t_keys[s]
        match = occupant == keys[pending]
        if match.any():
            ms = s[match]
            keep = ~t_banned[ms]
            with np.errstate(invalid="ignore"):  # NaN data is legal
                add_ufunc.at(t_vals, ms[keep], vals[pending[match][keep]])
        free = occupant == _EMPTY
        if free.any():
            f_idx = pending[free]
            f_slots = s[free]
            uniq_slots, first = np.unique(f_slots, return_index=True)
            winners = f_idx[first]
            t_keys[uniq_slots] = keys[winners]
            t_vals[uniq_slots] = identity
            claimed_all.append(uniq_slots)
            # winners stay pending: next pass they match their own slot and
            # accumulate their value; losers re-probe the now-claimed slot.
            still = pending[free]
        else:
            still = pending[:0]
        advance = pending[~match & ~free]
        slots[advance] = bases[advance] + ((slots[advance] - bases[advance]
                                            + 1) & cap_masks[advance])
        pending = np.concatenate([still, advance])
    return (np.concatenate(claimed_all) if claimed_all
            else np.empty(0, dtype=np.int64))


def _insert_batch(keys: np.ndarray, bases: np.ndarray, cap_masks: np.ndarray,
                  table_keys: np.ndarray) -> np.ndarray:
    """Insert possibly-duplicate keys, pattern-only (the complement
    symbolic pass): claim empty slots, drop keys whose value is already in
    the table (pre-inserted mask keys or an earlier duplicate) — no value
    array, no accumulation. Returns the slots claimed."""
    n = keys.size
    slots = bases + (_hash_values(keys) & cap_masks)
    pending = np.arange(n, dtype=np.int64)
    claimed_all: list[np.ndarray] = []
    while pending.size:
        s = slots[pending]
        occupant = table_keys[s]
        match = occupant == keys[pending]  # already present: drop
        free = occupant == _EMPTY
        if free.any():
            f_idx = pending[free]
            f_slots = s[free]
            uniq_slots, first = np.unique(f_slots, return_index=True)
            table_keys[uniq_slots] = keys[f_idx[first]]
            claimed_all.append(uniq_slots)
            lost = np.ones(f_idx.size, dtype=bool)
            lost[first] = False
            # losers re-probe the now-claimed slot: a duplicate of the
            # winner matches and drops, a collider advances next pass
            losers = f_idx[lost]
        else:
            losers = pending[:0]
        advance = pending[~match & ~free]
        slots[advance] = bases[advance] + ((slots[advance] - bases[advance]
                                            + 1) & cap_masks[advance])
        pending = np.concatenate([losers, advance])
    return (np.concatenate(claimed_all) if claimed_all
            else np.empty(0, dtype=np.int64))


def _fused_numeric(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                   rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, bj, prod = expand_rows(A, B, rows, semiring)
    if bj.size == 0:
        return empty_block(rows.size)
    m_lens = np.diff(mseg)
    caps = _row_capacities(m_lens)
    bases = row_segments(caps)
    tsize = int(bases[-1])
    t_keys = np.full(tsize, _EMPTY, dtype=np.int64)
    t_set = np.zeros(tsize, dtype=bool)

    m_row = np.repeat(np.arange(rows.size, dtype=np.int64), m_lens)
    m_slots = _insert_distinct_batch(mcols, bases[m_row], caps[m_row] - 1,
                                     t_keys)
    p_row = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(seg))
    live = caps[p_row] > 0  # drop products of mask-empty rows up front
    if not live.all():
        bj, prod, p_row = bj[live], prod[live], p_row[live]
    f_slots = _lookup_batch(bj, bases[p_row], caps[p_row] - 1, t_keys)
    ok = f_slots >= 0
    hit_slots = f_slots[ok]
    add = semiring.add.ufunc
    if add is np.add:
        t_vals = np.bincount(hit_slots, weights=prod[ok], minlength=tsize)
    else:
        t_vals = np.empty(tsize, dtype=np.float64)
        t_vals[m_slots] = semiring.identity
        with np.errstate(invalid="ignore"):
            add.at(t_vals, hit_slots, prod[ok])
    t_set[hit_slots] = True
    present = t_set[m_slots]  # aligned with the flat mask stream
    sizes = np.bincount(m_row[present],
                        minlength=rows.size).astype(INDEX_DTYPE)
    # mask order == sorted order, so the gather is row-grouped column-sorted
    return RowBlock(sizes, mcols[present], t_vals[m_slots[present]])


def _fused_numeric_complement(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                              semiring: Semiring, rows: np.ndarray) -> RowBlock:
    ncols = B.ncols
    if rows.size == 0 or ncols == 0:
        return empty_block(rows.size)
    seg, bj, prod = expand_rows(A, B, rows, semiring)
    if bj.size == 0:
        return empty_block(rows.size)
    p_lens = np.diff(seg)
    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    m_lens = np.diff(mseg)
    # only rows that produce products need a region (mask + distinct products)
    nkeys = np.where(p_lens > 0,
                     m_lens + np.minimum(p_lens, np.int64(ncols)), 0)
    caps = _row_capacities(nkeys)
    bases = row_segments(caps)
    tsize = int(bases[-1])
    t_keys = np.full(tsize, _EMPTY, dtype=np.int64)
    t_vals = np.empty(tsize, dtype=np.float64)
    t_banned = np.zeros(tsize, dtype=bool)

    m_row = np.repeat(np.arange(rows.size, dtype=np.int64), m_lens)
    m_live = caps[m_row] > 0
    m_slots = _insert_distinct_batch(mcols[m_live], bases[m_row[m_live]],
                                     caps[m_row[m_live]] - 1, t_keys)
    t_banned[m_slots] = True
    p_row = np.repeat(np.arange(rows.size, dtype=np.int64), p_lens)
    claimed = _insert_or_accumulate_batch(
        bj, prod, bases[p_row], caps[p_row] - 1, t_keys, t_vals, t_banned,
        semiring.add.ufunc, semiring.identity)
    if claimed.size == 0:
        return empty_block(rows.size)
    c_row = np.searchsorted(bases, claimed, side="right") - 1
    okeys = c_row * np.int64(ncols) + t_keys[claimed]
    order = np.argsort(okeys, kind="stable")
    uk = okeys[order]
    sizes = np.bincount(uk // ncols, minlength=rows.size).astype(INDEX_DTYPE)
    return RowBlock(sizes, (uk % ncols).astype(INDEX_DTYPE, copy=False),
                    t_vals[claimed[order]])


def _fused_symbolic(A: CSRMatrix, B: CSRMatrix, mask: Mask, rows: np.ndarray
                    ) -> np.ndarray:
    ncols = B.ncols
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    if rows.size == 0 or ncols == 0:
        return sizes
    if mask.complemented:
        seg, bj = expand_rows_pattern(A, B, rows)
        if bj.size == 0:
            return sizes
        p_lens = np.diff(seg)
        mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
        m_lens = np.diff(mseg)
        nkeys = np.where(p_lens > 0,
                         m_lens + np.minimum(p_lens, np.int64(ncols)), 0)
        caps = _row_capacities(nkeys)
        bases = row_segments(caps)
        tsize = int(bases[-1])
        t_keys = np.full(tsize, _EMPTY, dtype=np.int64)
        m_row = np.repeat(np.arange(rows.size, dtype=np.int64), m_lens)
        m_live = caps[m_row] > 0
        # mask keys pre-inserted: a product matching one drops in the
        # pattern-only insert below, no banned flags or values needed
        _insert_distinct_batch(mcols[m_live], bases[m_row[m_live]],
                               caps[m_row[m_live]] - 1, t_keys)
        p_row = np.repeat(np.arange(rows.size, dtype=np.int64), p_lens)
        claimed = _insert_batch(bj, bases[p_row], caps[p_row] - 1, t_keys)
        if claimed.size == 0:
            return sizes
        c_row = np.searchsorted(bases, claimed, side="right") - 1
        return np.bincount(c_row, minlength=rows.size).astype(INDEX_DTYPE)

    mseg, mcols = flatten_rows_pattern(mask.indptr, mask.indices, rows)
    if mcols.size == 0:
        return sizes
    seg, bj = expand_rows_pattern(A, B, rows)
    if bj.size == 0:
        return sizes
    m_lens = np.diff(mseg)
    caps = _row_capacities(m_lens)
    bases = row_segments(caps)
    tsize = int(bases[-1])
    t_keys = np.full(tsize, _EMPTY, dtype=np.int64)
    t_set = np.zeros(tsize, dtype=bool)
    m_row = np.repeat(np.arange(rows.size, dtype=np.int64), m_lens)
    m_slots = _insert_distinct_batch(mcols, bases[m_row], caps[m_row] - 1,
                                     t_keys)
    p_row = np.repeat(np.arange(rows.size, dtype=np.int64), np.diff(seg))
    live = caps[p_row] > 0
    if not live.all():
        bj, p_row = bj[live], p_row[live]
    f_slots = _lookup_batch(bj, bases[p_row], caps[p_row] - 1, t_keys)
    t_set[f_slots[f_slots >= 0]] = True
    present = t_set[m_slots]
    return np.bincount(m_row[present],
                       minlength=rows.size).astype(INDEX_DTYPE)


def numeric_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask, semiring: Semiring,
                 rows: np.ndarray) -> RowBlock:
    """Chunk-fused Hash numeric pass (plain and complemented masks),
    bit-identical to the reference tier."""
    fn = _fused_numeric_complement if mask.complemented else _fused_numeric
    return concat_blocks([fn(A, B, mask, semiring, block)
                          for block in fused_blocks(A, B, rows)])


def symbolic_rows(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  rows: np.ndarray) -> np.ndarray:
    """Chunk-fused pattern-only pass using the same batched table, values
    untouched."""
    parts = [_fused_symbolic(A, B, mask, block)
             for block in fused_blocks(A, B, rows)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def numeric_rows_into(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                      semiring: Semiring, rows: np.ndarray,
                      out_cols: np.ndarray, out_vals: np.ndarray,
                      offsets: np.ndarray) -> None:
    """Direct-write numeric pass (see :mod:`repro.core.types`): the plain
    path's mask-stream gather and the complement's key-sorted gather are both
    row-grouped and column-sorted, so each fused block lands in the final
    CSR arrays with one slice copy."""
    fn = _fused_numeric_complement if mask.complemented else _fused_numeric
    write_rows_into(lambda b: fn(A, B, mask, semiring, b),
                    fused_blocks(A, B, rows), offsets, out_cols, out_vals,
                    algorithm="hash")
