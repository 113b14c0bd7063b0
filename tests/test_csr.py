"""Unit tests for the CSR format (the paper's primary storage, §2.1)."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CSRMatrix, csr_from_dense, csr_random


def test_format_invariants_enforced():
    # bad indptr head
    with pytest.raises(FormatError):
        CSRMatrix([1, 2], [0], [1.0], (1, 3))
    # indptr length
    with pytest.raises(FormatError):
        CSRMatrix([0, 1], [0], [1.0], (2, 3))
    # decreasing indptr
    with pytest.raises(FormatError):
        CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 3))
    # column out of range
    with pytest.raises(FormatError):
        CSRMatrix([0, 1], [5], [1.0], (1, 3))
    # unsorted columns within a row
    with pytest.raises(FormatError):
        CSRMatrix([0, 2], [1, 0], [1.0, 2.0], (1, 3))
    # duplicate columns within a row
    with pytest.raises(FormatError):
        CSRMatrix([0, 2], [1, 1], [1.0, 2.0], (1, 3))


def test_rows_may_decrease_across_boundaries():
    # last col of row 0 is 2, first col of row 1 is 0: legal
    m = CSRMatrix([0, 2, 3], [0, 2, 0], [1.0, 2.0, 3.0], (2, 3))
    assert m.nnz == 3


def test_row_views_are_zero_copy():
    m = CSRMatrix([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], (2, 3))
    cols, vals = m.row(0)
    assert list(cols) == [0, 2]
    vals[0] = 42.0
    assert m.data[0] == 42.0  # view, not copy


def test_row_nnz_and_properties(rng):
    m = csr_random(10, 8, density=0.3, rng=rng)
    assert m.row_nnz().sum() == m.nnz
    assert m.nrows == 10 and m.ncols == 8


def test_to_dense_matches_manual():
    m = CSRMatrix([0, 1, 1, 3], [2, 0, 1], [5.0, 1.0, 2.0], (3, 3))
    d = m.to_dense()
    want = np.zeros((3, 3))
    want[0, 2], want[2, 0], want[2, 1] = 5.0, 1.0, 2.0
    assert np.array_equal(d, want)


def test_transpose_involution(rng):
    m = csr_random(12, 17, density=0.2, rng=rng)
    assert m.transpose().transpose().equals(m)
    assert np.allclose(m.T.to_dense(), m.to_dense().T)


def test_pattern_replaces_values(rng):
    m = csr_random(10, 10, density=0.2, rng=rng)
    p = m.pattern()
    assert p.same_pattern(m)
    assert np.all(p.data == 1.0)
    p2 = m.pattern(value=7.0)
    assert np.all(p2.data == 7.0)


def test_tril_triu_partition(rng):
    m = csr_random(15, 15, density=0.3, rng=rng)
    lower = m.tril()
    upper = m.triu()
    diag = np.diag(np.diag(m.to_dense()))
    assert np.allclose(lower.to_dense() + upper.to_dense() + diag, m.to_dense())


def test_sum(rng):
    m = csr_random(10, 12, density=0.25, rng=rng)
    assert np.isclose(m.sum(), m.to_dense().sum())


def test_equals_and_same_pattern(rng):
    m = csr_random(10, 10, density=0.2, rng=rng)
    m2 = m.copy()
    assert m.equals(m2)
    if m.nnz:
        m2.data[0] += 1.0
        assert m.same_pattern(m2)
        assert not m.equals(m2)


def test_astype():
    m = CSRMatrix([0, 1], [0], [1.5], (1, 1))
    i = m.astype(np.int64)
    assert i.data.dtype == np.int64


def test_empty_matrix():
    m = CSRMatrix.empty((4, 6))
    assert m.nnz == 0
    assert m.to_dense().shape == (4, 6)
    assert m.transpose().shape == (6, 4)


def test_from_dense_roundtrip(rng):
    d = rng.random((9, 11))
    d[d < 0.6] = 0.0
    m = csr_from_dense(d)
    assert np.allclose(m.to_dense(), d)


def test_from_dense_rejects_bad_ndim():
    with pytest.raises(ShapeError):
        csr_from_dense(np.zeros(3))


def test_diagonal(rng):
    m = csr_random(8, 8, density=0.4, rng=rng)
    assert np.allclose(m.diagonal(), np.diag(m.to_dense()))


def test_prune_explicit_zeros():
    m = CSRMatrix([0, 2], [0, 1], [0.0, 2.0], (1, 2))
    assert m.nnz == 2
    assert m.prune().nnz == 1
