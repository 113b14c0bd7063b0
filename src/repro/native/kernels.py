"""Protocol faces of the compiled kernel tier.

These wrap the compiled C backend the probe resolved (see the package
docstring) behind the repo-wide kernel protocol, so the registry spec
``msa-native`` is just another kernel:

``msa_numeric_rows``
    stitch face — compute requested rows compactly and return a RowBlock;
``msa_numeric_rows_into``
    direct-write face — scatter into preallocated CSR arrays at planned
    offsets, validating computed sizes first (same contract and same error
    as :func:`repro.core.types.write_block_into`);
``msa_symbolic_rows``
    symbolic face — exact output-row sizes from the patterns alone (paper
    §6), one compiled dense-state loop.

Every face **delegates to the fused numpy kernel** when the compiled tier
cannot serve the call — backend unavailable, a semiring outside the
compiled op table, non-float64/int64 operands, or an output wider than
:data:`MSA_NCOLS_CAP`. The symbolic pass is pattern-only, so its face
checks no semiring or data dtype. The fused kernels are bit-identical to
the compiled loops by construction (gated in ``tests/test_native.py`` and
``benchmarks/bench_native.py``), so delegation is invisible to callers:
the native key always computes the same product, merely slower.

The dense accumulator is allocated once per thread and reused, as the
paper's MSA is (§5.2): each thread keeps one grow-only scratch set
(:class:`_Scratch`) as wide as the widest output it has computed, so a
call pays no ``ncols``-wide allocation or zeroing. It is per thread
because the thread executor's chunks and the server's workers run
products at the same time.

Every face takes a bitmap mask (:meth:`repro.mask.Mask.from_bitmap`) as it
takes a CSR one, through the mask's CSR view. The one exception is the
complemented MSA loop, which reads a complemented bitmap's rows in place.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import AlgorithmError
from ..validation import INDEX_DTYPE

#: widest output the compiled tier serves: its per-thread scratch takes
#: about 18 bytes per column (72 MiB at the cap); wider products go to the
#: fused kernels, whose scratch grows with the work, not the width
MSA_NCOLS_CAP = 1 << 22

_ADD_CODES = None   # (np.ufunc, identity bits) -> (code, identity)
                    # codes: 0 plus, 1 min, 2 max
_MUL_CODES = None   # mul callable -> code (0 times, 1 pair, 2 first,
                    #                       3 second, 4 plus, 5 and)


def _add_key(monoid):
    # the identity's bits, not its value: -0.0 == 0.0, but a max monoid
    # started from -0.0 is not the one started from 0.0
    return monoid.ufunc, np.float64(monoid.identity).tobytes()


def _op_tables():
    """Codes keyed by the *objects* of the standard semirings, so custom
    :class:`~repro.semiring.Semiring` instances built from the same monoid
    (ufunc *and* identity) and the same multiply function compile too;
    anything else delegates. The compiled loops start every column at the
    identity, and the ``plus_pair`` counter loop at 0.0, so ``np.add``
    from 5.0 must not borrow the plus code: the fused kernels it delegates
    to define that product."""
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

        _ADD_CODES = {_add_key(m): (code, float(m.identity))
                      for m, code in ((PLUS_TIMES.add, 0), (MIN_PLUS.add, 1),
                                      (MAX_TIMES.add, 2), (OR_AND.add, 2))}
        _MUL_CODES = {PLUS_TIMES.mul: 0, PLUS_PAIR.mul: 1, PLUS_FIRST.mul: 2,
                      PLUS_SECOND.mul: 3, MIN_PLUS.mul: 4, OR_AND.mul: 5}
    return _ADD_CODES, _MUL_CODES


def op_codes(semiring) -> tuple[int, int, float] | None:
    """(add_op, mul_op, identity) for the compiled dispatch, or None when
    the semiring is outside the compiled table (→ delegate to fused). The
    identity is the table's canonical one: plus 0.0, min +inf, max -inf,
    or 0.0."""
    adds, muls = _op_tables()
    add = adds.get(_add_key(semiring.add))
    mul = muls.get(semiring.mul)
    if add is None or mul is None:
        return None
    return add[0], mul, add[1]


def supported(semiring) -> bool:
    """True when the compiled tier can execute this semiring itself."""
    return op_codes(semiring) is not None


def _backend():
    from . import native_backend

    b = native_backend()
    return None if b is None else b[1]


def _int64_indices(A, B) -> bool:
    # a Mask's indices are int64 by construction and read-only, so only the
    # operands are checked (reading a bitmap mask's CSR view here would
    # build it on the path that reads the bitmap in place)
    return all(a.dtype == INDEX_DTYPE for a in
               (A.indptr, A.indices, B.indptr, B.indices))


def _compilable(A, B) -> bool:
    return _int64_indices(A, B) and \
        A.data.dtype == np.float64 and B.data.dtype == np.float64


def eligible(A, B, mask, semiring) -> bool:
    """True when the compiled tier runs this product itself rather than
    delegating: a backend resolved, the semiring is in the op table, the
    operands are float64/int64 and the output is at most
    :data:`MSA_NCOLS_CAP` wide (the native-first rule of
    :func:`repro.core.registry.auto_select`)."""
    return (_backend() is not None and supported(semiring)
            and _compilable(A, B) and B.ncols <= MSA_NCOLS_CAP)


def _c(arr):
    return np.ascontiguousarray(arr)


def _compl_bound(A, B, mask, rows) -> int:
    """Output upper bound for complemented masks: a row's distinct
    surviving columns are at most min(flops_i, ncols − banned_i)."""
    from ..core.expand import per_row_flops

    mlens = mask.row_nnz(rows)
    flops = per_row_flops(A, B)[rows] if A.nnz else np.zeros_like(mlens)
    return int(np.minimum(flops, B.ncols - mlens).sum())


class _Scratch:
    """One thread's accumulator scratch, ``ncols`` wide, reused by every
    compiled call on that thread.

    The complemented and symbolic loops need ``states`` and ``bits`` all
    zero on entry and leave them zero. The plain loops leave stale hit
    states in columns outside the mask, so they keep their own
    ``plain_states``; sharing ``states`` would hand those stale hits to
    the next complemented or symbolic call. ``values`` is shared: every
    loop sets a column before it gathers it. It starts zeroed, so a loop
    never folds into uninitialised bits, only into an earlier product's
    values, which no gather reads.
    """

    __slots__ = ("ncols", "plain_states", "states", "values", "touched",
                 "bits")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.plain_states = np.zeros(ncols, dtype=np.int8)
        self.states = np.zeros(ncols, dtype=np.int8)
        self.values = np.zeros(ncols, dtype=np.float64)
        self.touched = np.empty(ncols, dtype=INDEX_DTYPE)
        self.bits = np.zeros((ncols + 63) // 64, dtype=np.uint64)


_LOCAL = threading.local()


def _scratch(ncols: int) -> _Scratch:
    """This thread's scratch, regrown (never shrunk) to ``ncols``."""
    s = getattr(_LOCAL, "scratch", None)
    if s is None or s.ncols < ncols:
        s = _LOCAL.scratch = _Scratch(ncols)
    return s


# --------------------------------------------------------------------- #
# MSA (dense accumulator: two states for plain masks, or a count for
# plus_pair; a bitset-gathered touched list for complemented ones, whose
# loop reads a bitmap mask's rows in place)
# --------------------------------------------------------------------- #
def _msa_call(be, A, B, mask, rows, codes, offsets, validate,
              out_cols, out_vals):
    add_op, mul_op, identity = codes
    scratch = _scratch(B.ncols)
    operands = (_c(A.indptr), _c(A.indices), _c(A.data),
                _c(B.indptr), _c(B.indices), _c(B.data))
    tail = (rows, add_op, mul_op, identity, offsets, validate,
            out_cols, out_vals)
    if mask.complemented:
        # a complemented bitmap is read in place: its CSR view is never built
        banned = ((None, None, mask.bitmap) if mask.bitmap is not None
                  else (_c(mask.indptr), _c(mask.indices), None))
        return be.msa_compl(*operands, *banned, *tail, scratch.states,
                            scratch.values, scratch.touched, scratch.bits)
    return be.msa_plain(*operands, _c(mask.indptr), _c(mask.indices), *tail,
                        scratch.plain_states, scratch.values)


def _msa_compiles(be, codes, A, B, mask) -> bool:
    return (be is not None and codes is not None
            and _compilable(A, B) and B.ncols <= MSA_NCOLS_CAP)


def msa_numeric_rows(A, B, mask, semiring, rows):
    from ..core import msa_kernel
    from ..core.types import RowBlock, empty_block

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be, codes = _backend(), op_codes(semiring)
    if not _msa_compiles(be, codes, A, B, mask):
        return msa_kernel.numeric_rows(A, B, mask, semiring, rows)
    if rows.size == 0:
        return empty_block(0)
    bound = (_compl_bound(A, B, mask, rows) if mask.complemented
             else int(mask.row_nnz(rows).sum()))
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
    if not _msa_compiles(be, codes, A, B, mask):
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
# symbolic pass (pattern-only)
# --------------------------------------------------------------------- #
def msa_symbolic_rows(A, B, mask, rows):
    from ..core import msa_kernel

    rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
    be = _backend()
    if (be is None or not _int64_indices(A, B)
            or B.ncols > MSA_NCOLS_CAP):
        return msa_kernel.symbolic_rows(A, B, mask, rows)
    sizes = np.zeros(rows.size, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return sizes
    scratch = _scratch(B.ncols)
    be.symbolic(_c(A.indptr), _c(A.indices), _c(B.indptr), _c(B.indices),
                _c(mask.indptr), _c(mask.indices), rows,
                int(mask.complemented), sizes, scratch.states,
                scratch.touched)
    return sizes


# --------------------------------------------------------------------- #
# probe self-test
# --------------------------------------------------------------------- #
def self_test(backend_mod) -> None:
    """Validate one backend end to end on tiny fixtures, bit-exactly against
    the fused numpy kernels — numeric passes (a folded loop, the
    ``plus_pair`` counter loop and min/plus) and symbolic row sizes, plain
    and complemented masks (the probe's correctness gate). Also forces
    the ``dlopen`` so the compile cost lands here, off the request
    path."""
    from ..core import msa_kernel
    from ..mask import Mask
    from ..semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
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
            got_sizes = msa_symbolic_rows(A, A, mask, rows)
        if not np.array_equal(want_sizes, got_sizes):
            raise RuntimeError(f"native self-test symbolic mismatch "
                               f"(complemented={complemented})")
        for semiring in (PLUS_TIMES, PLUS_PAIR, MIN_PLUS):
            want = msa_kernel.numeric_rows(A, A, mask, semiring, rows)
            with mock.patch(f"{__name__}._backend",
                            lambda m=backend_mod: m):
                got = msa_numeric_rows(A, A, mask, semiring, rows)
                # direct-write face against the stitch face's sizes
                offs = np.zeros(n + 1, dtype=INDEX_DTYPE)
                np.cumsum(got.sizes, out=offs[1:])
                into_cols = np.empty(int(offs[-1]), dtype=INDEX_DTYPE)
                into_vals = np.empty(int(offs[-1]), dtype=np.float64)
                msa_numeric_rows_into(A, A, mask, semiring, rows,
                                      into_cols, into_vals, offs)
            if not (np.array_equal(want.sizes, got.sizes)
                    and np.array_equal(want.cols, got.cols)
                    and np.array_equal(want.vals, got.vals)):
                raise RuntimeError(
                    f"native self-test mismatch (complemented="
                    f"{complemented}, semiring={semiring.name})")
            if not (np.array_equal(into_cols, want.cols)
                    and np.array_equal(into_vals, want.vals)):
                raise RuntimeError(
                    f"native self-test direct-write mismatch (complemented="
                    f"{complemented}, semiring={semiring.name})")
