"""Property-based tests for the vector API and the hybrid kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mask, SparseVector, masked_spgemm, masked_spgevm
from repro.sparse import COOMatrix


@st.composite
def vectors(draw, n=None, max_n=20):
    if n is None:
        n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, n))
    idx = sorted(draw(st.sets(st.integers(0, n - 1), min_size=nnz,
                              max_size=nnz)))
    vals = [float(v) for v in draw(
        st.lists(st.integers(-4, 4), min_size=len(idx), max_size=len(idx)))]
    return SparseVector(np.array(idx, dtype=np.int64), np.array(vals), n)


@st.composite
def csr_mats(draw, nr=None, nc=None, max_dim=15, max_nnz=40):
    nr = nr if nr is not None else draw(st.integers(1, max_dim))
    nc = nc if nc is not None else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, nr - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, nc - 1), min_size=nnz, max_size=nnz))
    vals = [float(v) for v in draw(
        st.lists(st.integers(-4, 4), min_size=nnz, max_size=nnz))]
    return COOMatrix(np.array(rows, dtype=np.int64),
                     np.array(cols, dtype=np.int64),
                     np.array(vals), (nr, nc)).to_csr()


@st.composite
def spgevm_problem(draw):
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    B = draw(csr_mats(nr=k, nc=n))
    u = draw(vectors(n=k))
    m = draw(vectors(n=n))
    return u, B, m


@given(spgevm_problem())
@settings(max_examples=50, deadline=None)
def test_spgevm_is_one_matrix_row(problem):
    """masked_spgevm(u, B, m) must equal row 0 of the equivalent 1-row
    masked_spgemm, for every algorithm the dispatcher would pick."""
    u, B, m = problem
    v = masked_spgevm(u, B, m, algorithm="msa")
    C = masked_spgemm(u.as_row_matrix(), B,
                      Mask(np.array([0, m.nnz]), m.indices, (1, B.ncols)),
                      algorithm="msa")
    assert v.equals(SparseVector.from_row_matrix(C))


@given(spgevm_problem(), st.sampled_from(["msa", "hash", "mca", "heap",
                                          "inner", "hybrid"]))
@settings(max_examples=50, deadline=None)
def test_spgevm_algorithms_agree(problem, alg):
    u, B, m = problem
    base = masked_spgevm(u, B, m, algorithm="msa")
    got = masked_spgevm(u, B, m, algorithm=alg)
    assert got.equals(base)


@given(spgevm_problem())
@settings(max_examples=40, deadline=None)
def test_spgevm_dense_oracle(problem):
    u, B, m = problem
    v = masked_spgevm(u, B, m, algorithm="hybrid")
    mask_pat = np.zeros(B.ncols, dtype=bool)
    mask_pat[m.indices] = True
    # oracle: dense product restricted to STORED u entries (explicit zeros
    # count) and the mask pattern
    want = np.zeros(B.ncols)
    exists = np.zeros(B.ncols, dtype=bool)
    ud = u.to_dense()
    for k in u.indices:
        lo, hi = B.indptr[k], B.indptr[k + 1]
        js = B.indices[lo:hi]
        want[js] += ud[k] * B.data[lo:hi]
        exists[js] = True
    exists &= mask_pat
    got = np.zeros(B.ncols)
    got[v.indices] = v.data
    got_exists = np.zeros(B.ncols, dtype=bool)
    got_exists[v.indices] = True
    assert np.array_equal(got_exists, exists)
    assert np.allclose(got[exists], want[exists])


@given(vectors())
@settings(max_examples=50, deadline=None)
def test_vector_dense_roundtrip(v):
    assert SparseVector.from_dense(v.to_dense()).to_dense().tolist() == \
        v.to_dense().tolist()


@given(st.integers(1, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_hybrid_equals_fixed_on_random(n, data):
    A = data.draw(csr_mats(nr=n, nc=n))
    B = data.draw(csr_mats(nr=n, nc=n))
    M = data.draw(csr_mats(nr=n, nc=n))
    mask = Mask.from_matrix(M)
    assert masked_spgemm(A, B, mask, algorithm="hybrid").equals(
        masked_spgemm(A, B, mask, algorithm="msa"))
