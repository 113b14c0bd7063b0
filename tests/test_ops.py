"""Tests for structural/element-wise ops (the GraphBLAS-ish helpers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.sparse import CSRMatrix, csr_random, ops


def test_ewise_mult_intersection(rng):
    a = csr_random(12, 14, density=0.3, rng=rng)
    b = csr_random(12, 14, density=0.3, rng=rng)
    c = ops.ewise_mult(a, b)
    assert np.allclose(c.to_dense(), a.to_dense() * b.to_dense())


def test_ewise_mult_custom_op(rng):
    a = csr_random(10, 10, density=0.3, rng=rng, values="ones")
    b = csr_random(10, 10, density=0.3, rng=rng, values="ones")
    c = ops.ewise_mult(a, b, op=np.minimum)
    # both store 1.0 at intersections
    assert np.all(c.data == 1.0)


def test_ewise_add_union(rng):
    a = csr_random(12, 14, density=0.2, rng=rng)
    b = csr_random(12, 14, density=0.2, rng=rng)
    c = ops.ewise_add(a, b)
    assert np.allclose(c.to_dense(), a.to_dense() + b.to_dense())
    # union semantics: pattern is the union of stored patterns
    ka = set(zip(*np.nonzero(a.to_dense() != 0)))
    assert c.nnz >= max(a.nnz, b.nnz)


def test_ewise_add_passthrough_values():
    a = CSRMatrix([0, 1], [0], [5.0], (1, 2))
    b = CSRMatrix([0, 1], [1], [7.0], (1, 2))
    c = ops.ewise_add(a, b)
    assert c.nnz == 2
    assert np.allclose(c.to_dense(), [[5.0, 7.0]])


def test_ewise_div_restricted_to_divisor_pattern():
    a = CSRMatrix([0, 2], [0, 1], [6.0, 9.0], (1, 2))
    b = CSRMatrix([0, 1], [0], [2.0], (1, 2))
    c = ops.ewise_div(a, b)
    assert c.nnz == 1
    assert c.to_dense()[0, 0] == 3.0


def test_shape_mismatch_raises(rng):
    a = csr_random(3, 4, density=0.5, rng=rng)
    b = csr_random(4, 3, density=0.5, rng=rng)
    with pytest.raises(ShapeError):
        ops.ewise_mult(a, b)
    with pytest.raises(ShapeError):
        ops.ewise_add(a, b)


def test_apply_mask_plain_and_complement(rng):
    c = csr_random(10, 10, density=0.4, rng=rng)
    m = csr_random(10, 10, density=0.3, rng=rng)
    kept = ops.apply_mask(c, m)
    dropped = ops.apply_mask(c, m, complemented=True)
    md = m.to_dense() != 0
    assert np.allclose(kept.to_dense(), c.to_dense() * md)
    assert np.allclose(dropped.to_dense(), c.to_dense() * ~md)
    # partition: every stored entry lands in exactly one side
    assert kept.nnz + dropped.nnz == c.nnz


def test_pattern_union_and_difference(rng):
    a = csr_random(8, 8, density=0.3, rng=rng)
    b = csr_random(8, 8, density=0.3, rng=rng)
    u = ops.pattern_union(a, b)
    assert np.array_equal(u.to_dense() != 0,
                          (a.to_dense() != 0) | (b.to_dense() != 0))
    d = ops.pattern_difference(a, b)
    assert np.array_equal(d.to_dense() != 0,
                          (a.to_dense() != 0) & ~(b.to_dense() != 0))


def test_symmetrize(rng):
    a = csr_random(9, 9, density=0.2, rng=rng)
    s = ops.symmetrize(a)
    ds = s.to_dense() != 0
    assert np.array_equal(ds, ds.T)
    assert np.all(ds[a.to_dense() != 0])


def test_symmetrize_requires_square(rng):
    with pytest.raises(ShapeError):
        ops.symmetrize(csr_random(3, 4, density=0.5, rng=rng))


def test_remove_diagonal():
    # stored: (0,0) diag, (0,1) off-diag, (1,1) diag -> one survivor
    m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
    r = ops.remove_diagonal(m)
    assert r.nnz == 1
    assert r.to_dense()[0, 1] == 2.0
    assert np.all(r.diagonal() == 0)


def test_scale_values(rng):
    a = csr_random(6, 6, density=0.4, rng=rng)
    s = ops.scale_values(a, lambda v: v * 2.0)
    assert s.same_pattern(a)
    assert np.allclose(s.data, a.data * 2.0)


def test_transpose_csr_matches_dense(rng):
    a = csr_random(7, 13, density=0.3, rng=rng)
    assert np.allclose(ops.transpose_csr(a).to_dense(), a.to_dense().T)


# ---------------------------------------------------------------------- #
# pattern fingerprinting (the PlanCache key primitive)
# ---------------------------------------------------------------------- #
def test_fingerprint_deterministic(rng):
    a = csr_random(20, 25, density=0.2, rng=rng)
    assert ops.matrix_fingerprint(a) == ops.matrix_fingerprint(a)
    assert ops.matrix_fingerprint(a) == ops.matrix_fingerprint(a.copy())


def test_fingerprint_ignores_values(rng):
    a = csr_random(20, 25, density=0.2, rng=rng)
    b = CSRMatrix(a.indptr.copy(), a.indices.copy(), a.data * 3.14 + 1.0,
                  a.shape, check=False)
    assert ops.matrix_fingerprint(a) == ops.matrix_fingerprint(b)
    assert ops.matrix_fingerprint(a) == ops.matrix_fingerprint(a.pattern())


def test_fingerprint_distinguishes_patterns(rng):
    seen = set()
    for seed in range(40):
        m = csr_random(15, 15, density=0.2, rng=np.random.default_rng(seed))
        seen.add(ops.matrix_fingerprint(m))
    assert len(seen) == 40  # 40 random patterns, 40 distinct fingerprints


def test_fingerprint_single_entry_moves():
    # moving one nonzero anywhere in the matrix must change the hash
    fps = set()
    for i in range(6):
        for j in range(6):
            m = CSRMatrix.empty((6, 6))
            row = np.zeros(7, dtype=np.int64)
            row[i + 1:] = 1
            m = CSRMatrix(row, np.array([j]), np.array([1.0]), (6, 6))
            fps.add(ops.matrix_fingerprint(m))
    assert len(fps) == 36


def test_fingerprint_shape_matters():
    # same (empty) arrays, different shapes -> different fingerprints
    import numpy as _np
    empty = _np.empty(0, dtype=_np.int64)
    fp_a = ops.pattern_fingerprint(_np.zeros(4, dtype=_np.int64), empty, (3, 5))
    fp_b = ops.pattern_fingerprint(_np.zeros(4, dtype=_np.int64), empty, (3, 6))
    assert fp_a != fp_b


def test_fingerprint_indptr_indices_boundary():
    # the indptr|indices split is part of the digest: two patterns whose
    # concatenated arrays coincide must still hash differently
    m1 = CSRMatrix([0, 1, 1], [0], [1.0], (2, 2))       # entry at (0,0)
    m2 = CSRMatrix([0, 0, 1], [0], [1.0], (2, 2))       # entry at (1,0)
    assert ops.matrix_fingerprint(m1) != ops.matrix_fingerprint(m2)


def test_fingerprint_dtype_and_layout_invariance(rng):
    a = csr_random(10, 12, density=0.3, rng=rng)
    fp32 = ops.pattern_fingerprint(a.indptr.astype(np.int32),
                                   a.indices.astype(np.int32), a.shape)
    strided = ops.pattern_fingerprint(
        np.repeat(a.indptr, 2)[::2], np.repeat(a.indices, 2)[::2], a.shape)
    assert fp32 == ops.matrix_fingerprint(a) == strided


# ---------------------------------------------------------------------- #
# sort-and-dedupe key algebra
# ---------------------------------------------------------------------- #
int_keys = st.lists(st.integers(-2**40, 2**40), max_size=60).map(
    lambda xs: np.array(xs, dtype=np.int64))


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(int_keys)
def test_sorted_unique_is_np_unique(x):
    _assert_same_array(ops._sorted_unique(x), np.unique(x))


@settings(max_examples=150, deadline=None)
@given(int_keys, int_keys)
def test_sorted_union_is_union1d(a, b):
    _assert_same_array(ops._sorted_union(a, b), np.union1d(a, b))


@pytest.mark.parametrize("x", [
    np.empty(0, dtype=np.int64), np.full(7, 3, dtype=np.int64),
    np.array([9, 1, 4, 1, 9, 0, 4], dtype=np.int64),
    np.array([5, 2, 2], dtype=np.int32)], ids=["empty", "dupes", "unsorted",
                                               "int32"])
def test_sorted_unique_edge_cases(x):
    _assert_same_array(ops._sorted_unique(x), np.unique(x))
    _assert_same_array(ops._sorted_union(x, x[::-1]), np.union1d(x, x[::-1]))


def _union1d_ewise_add(a, b, op):
    """eWiseAdd written with ``np.union1d`` and one value array per operand."""
    ka, kb = ops._keys(a), ops._keys(b)
    union = np.union1d(ka, kb)
    va, vb = np.zeros(union.size), np.zeros(union.size)
    in_a, in_b = np.zeros(union.size, bool), np.zeros(union.size, bool)
    pa, pb = np.searchsorted(union, ka), np.searchsorted(union, kb)
    va[pa], vb[pb] = a.data, b.data
    in_a[pa], in_b[pb] = True, True
    vals = np.where(in_a, va, vb)
    both = in_a & in_b
    vals[both] = op(va[both], vb[both])
    return ops._from_keys(union, vals, a.shape)


def _pair(rng, kind):
    a = csr_random(9, 11, density=0.3, rng=rng, values="uniform")
    if kind == "identical":
        return a, ops.scale_values(a, lambda v: v * 3.0 + 1.0)
    b = csr_random(9, 11, density=0.3, rng=rng, values="uniform")
    if kind == "disjoint":
        b = ops.pattern_difference(b, a)
    return a, b


@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "identical"])
@pytest.mark.parametrize("op", [np.add, np.maximum, lambda x, y: x - 2 * y],
                         ids=["add", "max", "custom"])
def test_ewise_add_and_pattern_union_match_union1d(rng, kind, op):
    for _ in range(5):
        a, b = _pair(rng, kind)
        got, want = ops.ewise_add(a, b, op=op), _union1d_ewise_add(a, b, op)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        pu = ops.pattern_union(a, b)
        assert pu.same_pattern(want) and np.all(pu.data == 1.0)
