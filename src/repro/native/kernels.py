"""Protocol faces of the compiled kernel tier.

These wrap the compiled C backend the probe resolved (see the package
docstring) behind the repo-wide kernel protocol, so the registry specs
``msa-native`` / ``hash-native`` are just another pair of kernels:

``msa_numeric_rows`` / ``hash_numeric_rows``
    stitch face — compute requested rows compactly and return a RowBlock;
``msa_numeric_rows_into`` / ``hash_numeric_rows_into``
    direct-write face — scatter into preallocated CSR arrays at planned
    offsets, validating computed sizes first (same contract and same error
    as :func:`repro.core.types.write_block_into`);
``msa_symbolic_rows`` / ``hash_symbolic_rows``
    symbolic face — exact output-row sizes from the patterns alone (paper
    §6), one compiled dense-state loop behind both keys.

Every face **delegates to the fused numpy kernel** when the compiled tier
cannot serve the call — backend unavailable, a semiring outside the
compiled op table, non-float64/int64 operands, or an output too wide for
the dense scratch. The symbolic pass is pattern-only, so its face checks
no semiring or data dtype. The fused kernels are bit-identical to the
compiled loops by construction (gated in ``tests/test_native.py`` and
``benchmarks/bench_native.py``), so delegation is invisible to callers:
the native keys always compute the same product, merely slower.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..validation import INDEX_DTYPE

#: widest MSA output the dense accumulator scratch is worth allocating for;
#: beyond this the hash table (or the fused kernel's composite keys) wins
MSA_NCOLS_CAP = 1 << 22

_ADD_CODES = None   # np.ufunc -> code (0 plus, 1 min, 2 max)
_MUL_CODES = None   # mul callable -> code (0 times, 1 pair, 2 first,
                    #                       3 second, 4 plus, 5 and)


def _op_tables():
    """Codes keyed by the *objects* of the standard semirings, so custom
    :class:`~repro.semiring.Semiring` instances built from the same monoid
    ufuncs and multiply functions compile too; anything else delegates."""
    global _ADD_CODES, _MUL_CODES
    if _ADD_CODES is None:
        from ..semiring.standard import (
            MAX_TIMES,
            MIN_PLUS,
            OR_AND,
            PLUS_FIRST,
            PLUS_PAIR,
            PLUS_SECOND,
            PLUS_TIMES,
        )

        _ADD_CODES = {PLUS_TIMES.add.ufunc: 0, MIN_PLUS.add.ufunc: 1,
                      MAX_TIMES.add.ufunc: 2, OR_AND.add.ufunc: 2}
        _MUL_CODES = {PLUS_TIMES.mul: 0, PLUS_PAIR.mul: 1, PLUS_FIRST.mul: 2,
                      PLUS_SECOND.mul: 3, MIN_PLUS.mul: 4, OR_AND.mul: 5}
    return _ADD_CODES, _MUL_CODES


def op_codes(semiring) -> tuple[int, int, float] | None:
    """(add_op, mul_op, identity) for the compiled switch, or None when the
    semiring is outside the compiled table (→ delegate to fused)."""
    adds, muls = _op_tables()
    add = adds.get(semiring.add.ufunc)
    mul = muls.get(semiring.mul)
    if add is None or mul is None:
        return None
    return add, mul, float(semiring.add.identity)


def supported(semiring) -> bool:
    """True when the compiled tier can execute this semiring itself."""
    return op_codes(semiring) is not None


def _backend():
    from . import native_backend

    b = native_backend()
    return None if b is None else b[1]


def _int64_indices(A, B, mask) -> bool:
    return all(a.dtype == INDEX_DTYPE for a in
               (A.indptr, A.indices, B.indptr, B.indices,
                mask.indptr, mask.indices))


def _compilable(A, B, mask) -> bool:
    return _int64_indices(A, B, mask) and \
        A.data.dtype == np.float64 and B.data.dtype == np.float64


def eligible(A, B, mask, semiring) -> bool:
    """True when the compiled tier runs this product itself rather than
    delegating: a backend resolved, the semiring is in the op table and
    the operands are float64/int64 (the native-first rule of
    :func:`repro.core.registry.auto_select`)."""
    return (_backend() is not None and supported(semiring)
            and _compilable(A, B, mask))


def _c(arr):
    return np.ascontiguousarray(arr)


def _pow2cap(nkeys: int) -> int:
    cap = 4
    need = int(nkeys) * 4
    while cap < need:
        cap <<= 1
    return cap


def _compl_bounds(A, B, mask, rows):
    """Per-row output upper bound + hash-table key budget for complemented
    masks: distinct surviving columns ≤ min(flops_i, ncols − banned_i)."""
    from ..core.expand import per_row_flops

    mlens = mask.indptr[rows + 1] - mask.indptr[rows]
    flops = per_row_flops(A, B)[rows] if A.nnz else np.zeros_like(mlens)
    bound = np.minimum(flops, B.ncols - mlens)
    return mlens, bound, mlens + bound


# --------------------------------------------------------------------- #
# MSA (dense accumulator: two states for plain masks, a bitset-gathered
# touched list for complemented ones)
# --------------------------------------------------------------------- #
def _msa_call(be, A, B, mask, rows, codes, offsets, validate,
              out_cols, out_vals):
    add_op, mul_op, identity = codes
    ncols = B.ncols
    states = np.zeros(ncols, dtype=np.int8)
    # zeroed, not empty: the plain loop folds every flop into its column,
    # allowed or not, and must never read uninitialised (or denormal) junk
    values = np.zeros(ncols, dtype=np.float64)
    args = (_c(A.indptr), _c(A.indices), _c(A.data),
            _c(B.indptr), _c(B.indices), _c(B.data),
            _c(mask.indptr), _c(mask.indices), rows,
            add_op, mul_op, identity, offsets, validate,
            out_cols, out_vals, states, values)
    if mask.complemented:
        touched = np.empty(ncols, dtype=INDEX_DTYPE)
        bits = np.zeros((ncols + 63) // 64, dtype=np.uint64)
        return be.msa_compl(*args, touched, bits)
    return be.msa_plain(*args)


def msa_numeric_rows(A, B, mask, semiring, rows):
    from ..core import msa_kernel
    from ..core.types import RowBlock, empty_block

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be, codes = _backend(), op_codes(semiring)
    if (be is None or codes is None or not _compilable(A, B, mask)
            or B.ncols > MSA_NCOLS_CAP):
        return msa_kernel.numeric_rows(A, B, mask, semiring, rows)
    if rows.size == 0:
        return empty_block(0)
    if mask.complemented:
        _, per_row_bound, _ = _compl_bounds(A, B, mask, rows)
        bound = int(per_row_bound.sum())
    else:
        bound = int((mask.indptr[rows + 1] - mask.indptr[rows]).sum())
    offsets = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    _msa_call(be, A, B, mask, rows, codes, offsets, 0, out_cols, out_vals)
    total = int(offsets[-1])
    return RowBlock(np.diff(offsets), out_cols[:total], out_vals[:total])


def msa_numeric_rows_into(A, B, mask, semiring, rows, out_cols, out_vals,
                          offsets):
    from ..core import msa_kernel

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be, codes = _backend(), op_codes(semiring)
    if (be is None or codes is None or not _compilable(A, B, mask)
            or B.ncols > MSA_NCOLS_CAP):
        return msa_kernel.numeric_rows_into(A, B, mask, semiring, rows,
                                            out_cols, out_vals, offsets)
    if rows.size == 0:
        return
    offsets = np.ascontiguousarray(offsets, dtype=INDEX_DTYPE)
    bad = _msa_call(be, A, B, mask, rows, codes, offsets, 1,
                    out_cols, out_vals)
    if bad >= 0:
        raise AlgorithmError(
            "msa-native: computed row sizes differ from the planned offsets "
            "— stale plan (operand patterns changed since the symbolic "
            "pass) or kernel divergence"
        )


# --------------------------------------------------------------------- #
# Hash (per-row open-addressing table, LF 0.25, Fibonacci slots)
# --------------------------------------------------------------------- #
def _hash_call(be, A, B, mask, rows, codes, offsets, validate,
               out_cols, out_vals):
    add_op, mul_op, identity = codes
    if mask.complemented:
        _, _, nkeys = _compl_bounds(A, B, mask, rows)
        nkeys = np.ascontiguousarray(nkeys, dtype=INDEX_DTYPE)
        cap = _pow2cap(int(nkeys.max()) if nkeys.size else 0)
    else:
        mlens = mask.indptr[rows + 1] - mask.indptr[rows]
        nkeys = None
        cap = _pow2cap(int(mlens.max()) if mlens.size else 0)
    t_keys = np.empty(cap, dtype=INDEX_DTYPE)
    t_state = np.empty(cap, dtype=np.int8)
    t_vals = np.empty(cap, dtype=np.float64)
    args = (_c(A.indptr), _c(A.indices), _c(A.data),
            _c(B.indptr), _c(B.indices), _c(B.data),
            _c(mask.indptr), _c(mask.indices), rows)
    tail = (codes[0], codes[1], identity, offsets, validate,
            out_cols, out_vals, t_keys, t_state, t_vals)
    if mask.complemented:
        touched = np.empty(cap, dtype=INDEX_DTYPE)
        return be.hash_compl(*args, nkeys, *tail, touched)
    return be.hash_plain(*args, *tail)


def hash_numeric_rows(A, B, mask, semiring, rows):
    from ..core import hash_kernel
    from ..core.types import RowBlock, empty_block

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be, codes = _backend(), op_codes(semiring)
    if be is None or codes is None or not _compilable(A, B, mask):
        return hash_kernel.numeric_rows(A, B, mask, semiring, rows)
    if rows.size == 0:
        return empty_block(0)
    if mask.complemented:
        _, per_row_bound, _ = _compl_bounds(A, B, mask, rows)
        bound = int(per_row_bound.sum())
    else:
        bound = int((mask.indptr[rows + 1] - mask.indptr[rows]).sum())
    offsets = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    out_cols = np.empty(bound, dtype=INDEX_DTYPE)
    out_vals = np.empty(bound, dtype=np.float64)
    _hash_call(be, A, B, mask, rows, codes, offsets, 0, out_cols, out_vals)
    total = int(offsets[-1])
    return RowBlock(np.diff(offsets), out_cols[:total], out_vals[:total])


def hash_numeric_rows_into(A, B, mask, semiring, rows, out_cols, out_vals,
                           offsets):
    from ..core import hash_kernel

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be, codes = _backend(), op_codes(semiring)
    if be is None or codes is None or not _compilable(A, B, mask):
        return hash_kernel.numeric_rows_into(A, B, mask, semiring, rows,
                                             out_cols, out_vals, offsets)
    if rows.size == 0:
        return
    offsets = np.ascontiguousarray(offsets, dtype=INDEX_DTYPE)
    bad = _hash_call(be, A, B, mask, rows, codes, offsets, 1,
                     out_cols, out_vals)
    if bad >= 0:
        raise AlgorithmError(
            "hash-native: computed row sizes differ from the planned "
            "offsets — stale plan (operand patterns changed since the "
            "symbolic pass) or kernel divergence"
        )


# --------------------------------------------------------------------- #
# symbolic pass (pattern-only, shared by both native keys)
# --------------------------------------------------------------------- #
def _symbolic_rows(fused, A, B, mask, rows):
    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be = _backend()
    if (be is None or not _int64_indices(A, B, mask)
            or B.ncols > MSA_NCOLS_CAP):
        return fused(A, B, mask, rows)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return sizes
    states = np.zeros(B.ncols, dtype=np.int8)
    touched = np.empty(B.ncols, dtype=INDEX_DTYPE)
    be.symbolic(_c(A.indptr), _c(A.indices), _c(B.indptr), _c(B.indices),
                _c(mask.indptr), _c(mask.indices), rows,
                int(mask.complemented), sizes, states, touched)
    return sizes


def msa_symbolic_rows(A, B, mask, rows):
    from ..core import msa_kernel

    return _symbolic_rows(msa_kernel.symbolic_rows, A, B, mask, rows)


def hash_symbolic_rows(A, B, mask, rows):
    from ..core import hash_kernel

    return _symbolic_rows(hash_kernel.symbolic_rows, A, B, mask, rows)


# --------------------------------------------------------------------- #
# probe self-test
# --------------------------------------------------------------------- #
def self_test(backend_mod) -> None:
    """Validate one backend end to end on tiny fixtures, bit-exactly against
    the fused numpy kernels — numeric passes and symbolic row sizes, plain
    and complemented masks (the probe's correctness gate). Also forces
    the ``dlopen`` so the compile cost lands here, off the request
    path."""
    from ..core import hash_kernel, msa_kernel
    from ..mask import Mask
    from ..semiring import MIN_PLUS, PLUS_TIMES
    from ..sparse.csr import CSRMatrix

    rng = np.random.default_rng(1234)
    n = 16
    dense = (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    cols, vals = [], []
    for i in range(n):
        nz = np.flatnonzero(dense[i])
        indptr[i + 1] = indptr[i] + nz.size
        cols.append(nz.astype(INDEX_DTYPE))
        vals.append(dense[i, nz])
    A = CSRMatrix(indptr, np.concatenate(cols), np.concatenate(vals), (n, n))
    m_dense = rng.random((n, n)) < 0.4
    m_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    m_cols = []
    for i in range(n):
        nz = np.flatnonzero(m_dense[i]).astype(INDEX_DTYPE)
        m_indptr[i + 1] = m_indptr[i] + nz.size
        m_cols.append(nz)
    rows = np.arange(n, dtype=INDEX_DTYPE)

    import unittest.mock as mock

    for complemented in (False, True):
        mask = Mask(m_indptr.copy(), np.concatenate(m_cols), (n, n),
                    complemented=complemented)
        want_sizes = msa_kernel.symbolic_rows(A, A, mask, rows)
        with mock.patch(f"{__name__}._backend", lambda m=backend_mod: m):
            got_sizes = (msa_symbolic_rows(A, A, mask, rows),
                         hash_symbolic_rows(A, A, mask, rows))
        if not all(np.array_equal(want_sizes, g) for g in got_sizes):
            raise RuntimeError(f"native self-test symbolic mismatch "
                               f"(complemented={complemented})")
        for semiring in (PLUS_TIMES, MIN_PLUS):
            want_msa = msa_kernel.numeric_rows(A, A, mask, semiring, rows)
            want_hash = hash_kernel.numeric_rows(A, A, mask, semiring, rows)
            with mock.patch(f"{__name__}._backend",
                            lambda m=backend_mod: m):
                got_msa = msa_numeric_rows(A, A, mask, semiring, rows)
                got_hash = hash_numeric_rows(A, A, mask, semiring, rows)
                # direct-write face against the stitch face's sizes
                offs = np.zeros(n + 1, dtype=INDEX_DTYPE)
                np.cumsum(got_msa.sizes, out=offs[1:])
                into_cols = np.empty(int(offs[-1]), dtype=INDEX_DTYPE)
                into_vals = np.empty(int(offs[-1]), dtype=np.float64)
                msa_numeric_rows_into(A, A, mask, semiring, rows,
                                      into_cols, into_vals, offs)
                hash_into_cols = np.empty(int(offs[-1]), dtype=INDEX_DTYPE)
                hash_into_vals = np.empty(int(offs[-1]), dtype=np.float64)
                hash_numeric_rows_into(A, A, mask, semiring, rows,
                                       hash_into_cols, hash_into_vals, offs)
            for want, got in ((want_msa, got_msa), (want_hash, got_hash)):
                if not (np.array_equal(want.sizes, got.sizes)
                        and np.array_equal(want.cols, got.cols)
                        and np.array_equal(want.vals, got.vals)):
                    raise RuntimeError(
                        f"native self-test mismatch (complemented="
                        f"{complemented}, semiring={semiring.name})")
            if not (np.array_equal(into_cols, want_msa.cols)
                    and np.array_equal(into_vals, want_msa.vals)
                    and np.array_equal(hash_into_cols, want_hash.cols)
                    and np.array_equal(hash_into_vals, want_hash.vals)):
                raise RuntimeError(
                    f"native self-test direct-write mismatch (complemented="
                    f"{complemented}, semiring={semiring.name})")
