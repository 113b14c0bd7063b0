"""Tests for the row-expansion helpers shared by push kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expand import (
    chunk_flops,
    composite_keys,
    concat_ranges,
    expand_row,
    expand_row_pattern,
    expand_rows,
    expand_rows_pattern,
    flatten_rows_pattern,
    per_row_flops,
    total_flops,
)
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.sparse import csr_random
from repro.validation import INDEX_DTYPE


def test_concat_ranges_basic():
    starts = np.array([5, 0, 10])
    lens = np.array([2, 3, 1])
    assert concat_ranges(starts, lens).tolist() == [5, 6, 0, 1, 2, 10]


def test_concat_ranges_with_empties():
    starts = np.array([3, 7, 1])
    lens = np.array([0, 2, 0])
    assert concat_ranges(starts, lens).tolist() == [7, 8]
    assert concat_ranges(np.array([1]), np.array([0])).size == 0
    assert concat_ranges(np.array([], dtype=np.int64),
                         np.array([], dtype=np.int64)).size == 0


def test_expand_row_matches_manual(rng):
    A = csr_random(8, 6, density=0.4, rng=rng, values="randint")
    B = csr_random(6, 9, density=0.4, rng=rng, values="randint")
    Ad, Bd = A.to_dense(), B.to_dense()
    for i in range(8):
        bj, prod = expand_row(A, B, i, PLUS_TIMES)
        want = []
        for k in np.flatnonzero(Ad[i]):
            for j in np.flatnonzero(Bd[k]):
                want.append((j, Ad[i, k] * Bd[k, j]))
        assert bj.tolist() == [j for j, _ in want]
        assert np.allclose(prod, [v for _, v in want])
        assert expand_row_pattern(A, B, i).tolist() == [j for j, _ in want]


def test_expand_row_semiring_awareness(rng):
    A = csr_random(5, 5, density=0.5, rng=rng, values="randint")
    B = csr_random(5, 5, density=0.5, rng=rng, values="randint")
    for i in range(5):
        _, prod = expand_row(A, B, i, PLUS_PAIR)
        assert np.all(prod == 1.0)


def test_per_row_flops_and_total(rng):
    A = csr_random(10, 7, density=0.3, rng=rng)
    B = csr_random(7, 11, density=0.3, rng=rng)
    Ad, Bd = A.to_dense() != 0, B.to_dense() != 0
    want = np.array([sum(Bd[k].sum() for k in np.flatnonzero(Ad[i]))
                     for i in range(10)])
    assert np.array_equal(per_row_flops(A, B), want)
    assert total_flops(A, B) == want.sum()


def test_chunk_flops_matches_per_row_flops(rng):
    """``chunk_flops`` counts the same products as ``per_row_flops`` for
    every row-set shape a chunk can take: contiguous (the slice path),
    scattered/unsorted (the gather path), a single row and none at all,
    including an A with no entries."""
    A = csr_random(12, 7, density=0.3, rng=rng)
    B = csr_random(7, 11, density=0.3, rng=rng)
    empty_A = csr_random(12, 7, density=0.0, rng=rng)
    assert empty_A.nnz == 0
    row_sets = [np.arange(12), np.arange(3, 9), np.array([5]),
                np.array([11]), np.array([0, 4, 9]), np.array([9, 2, 7, 2]),
                np.array([3, 2, 1, 0]), np.array([], dtype=np.int64)]
    for M in (A, empty_A):
        full = per_row_flops(M, B)
        for rows in row_sets:
            rows = rows.astype(INDEX_DTYPE)
            got = chunk_flops(M, B, rows)
            assert got.shape == rows.shape
            assert np.array_equal(got, full[rows])


def test_concat_ranges_int64_positions():
    """Positions past int32 must survive even if a narrower index dtype were
    configured: the cumsum arithmetic always runs in int64."""
    big = np.int64(1) << 33  # > int32 max
    out = concat_ranges(np.array([big, 5], dtype=np.int64),
                        np.array([2, 2], dtype=np.int64))
    assert out.tolist() == [big, big + 1, 5, 6]
    assert out.dtype == np.int64


def test_expand_rows_matches_per_row(rng):
    """The chunk-fused expansion is the concatenation of expand_row results,
    with segment offsets bracketing each row's slice."""
    A = csr_random(10, 8, density=0.35, rng=rng, values="randint")
    B = csr_random(8, 12, density=0.35, rng=rng, values="randint")
    for rows in ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [3, 4, 9], [7], []):
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        seg, cols, vals = expand_rows(A, B, rows, PLUS_TIMES)
        pseg, pcols = expand_rows_pattern(A, B, rows)
        assert seg.size == rows.size + 1 and seg[0] == 0
        assert np.array_equal(seg, pseg)
        assert np.array_equal(cols, pcols)
        for t, i in enumerate(rows):
            bj, prod = expand_row(A, B, int(i), PLUS_TIMES)
            assert np.array_equal(cols[seg[t]:seg[t + 1]], bj)
            assert np.array_equal(vals[seg[t]:seg[t + 1]], prod)


def test_flatten_rows_pattern(rng):
    M = csr_random(9, 11, density=0.3, rng=rng)
    rows = np.array([0, 2, 8], dtype=INDEX_DTYPE)
    seg, cols = flatten_rows_pattern(M.indptr, M.indices, rows)
    for t, i in enumerate(rows):
        lo, hi = M.indptr[i], M.indptr[i + 1]
        assert np.array_equal(cols[seg[t]:seg[t + 1]], M.indices[lo:hi])


def test_empty_matrices():
    from repro.sparse import CSRMatrix

    A = CSRMatrix.empty((4, 5))
    B = CSRMatrix.empty((5, 6))
    assert total_flops(A, B) == 0
    assert per_row_flops(A, B).tolist() == [0, 0, 0, 0]
    bj, prod = expand_row(A, B, 0, PLUS_TIMES)
    assert bj.size == 0 and prod.size == 0


# --------------------------------------------------------------------- #
# int32 composite-key fast path (budget-sized chunks fit int32 keys)
# --------------------------------------------------------------------- #
class TestCompositeKeyDtype:
    """``composite_keys`` halves sort traffic with int32 keys whenever the
    chunk's key space ``chunk_rows * ncols`` fits, falling back to int64 at
    the boundary — values must be identical either side of it."""

    @staticmethod
    def _keys_for(nrows, ncols, per_row=2):
        seg = np.arange(nrows + 1, dtype=np.int64) * per_row
        cols = np.tile(np.array([0, ncols - 1], dtype=np.int64)[:per_row],
                       nrows)
        return composite_keys(seg, cols, ncols)

    def test_small_chunks_use_int32(self):
        keys = self._keys_for(nrows=6, ncols=100)
        assert keys.dtype == np.int32
        assert keys.tolist() == [0, 99, 100, 199, 200, 299,
                                 300, 399, 400, 499, 500, 599]

    def test_boundary_exact(self):
        # largest int32-safe key space: chunk_rows * ncols == 2^31 - 1
        ncols = (2**31 - 1) // 3
        assert composite_keys(np.array([0, 1, 1, 2]),
                              np.array([0, ncols - 1]),
                              ncols).dtype == np.int32
        # one column more tips chunk_rows * ncols past 2^31 - 1 -> int64
        assert composite_keys(np.array([0, 1, 1, 2]),
                              np.array([0, ncols]),
                              ncols + 1).dtype == np.int64

    def test_values_equal_across_boundary(self):
        # same logical (row, col) pairs, key spaces straddling the cutoff:
        # the fused keys must decode to identical (row, col) either way
        for ncols in ((2**31 - 1) // 4, (2**31 - 1) // 4 + 1):
            keys = self._keys_for(nrows=4, ncols=ncols)
            rows_back = keys.astype(np.int64) // ncols
            cols_back = keys.astype(np.int64) % ncols
            assert rows_back.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
            assert cols_back.tolist() == [0, ncols - 1] * 4

    def test_int64_fallback_huge_ncols(self):
        # a single row over a > 2^31 column space cannot use int32
        ncols = 2**32
        keys = composite_keys(np.array([0, 2]),
                              np.array([0, ncols - 1], dtype=np.int64), ncols)
        assert keys.dtype == np.int64
        assert keys.tolist() == [0, ncols - 1]

    def test_zero_row_chunk_any_ncols(self):
        # empty chunks must not trip the int32 cast on a huge ncols
        keys = composite_keys(np.array([0]), np.empty(0, dtype=np.int64),
                              2**40)
        assert keys.size == 0

    @given(nrows=st.integers(1, 8), ncols=st.integers(1, 50),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_int64_reference(self, nrows, ncols, data):
        lens = data.draw(st.lists(st.integers(0, 5), min_size=nrows,
                                  max_size=nrows))
        seg = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        cols = np.array(data.draw(st.lists(st.integers(0, ncols - 1),
                                           min_size=int(seg[-1]),
                                           max_size=int(seg[-1]))),
                        dtype=np.int64)
        keys = composite_keys(seg, cols, ncols)
        prow = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(seg))
        ref = prow * np.int64(ncols) + cols
        assert np.array_equal(keys.astype(np.int64), ref)
