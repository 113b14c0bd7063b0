"""Masked products with a single-row left operand (u·B, the vector-times-
matrix shape of one traversal step from one source).

A 1×k operand is the degenerate end of every kernel's row loop: one row,
one chunk, and an output row whose mask may be empty, full or absent.
Every kernel key, baseline and tier must still equal the dense oracle.
"""

import numpy as np
import pytest

from conftest import (
    ALL_SEMIRINGS,
    COMPLEMENT_ALGOS,
    PLAIN_ALGOS,
    assert_masked_product_correct,
)
from repro.core import masked_spgemm
from repro.errors import MaskError, ShapeError
from repro.mask import Mask
from repro.semiring import MIN_PLUS
from repro.sparse import csr_from_dense, csr_random

# the paper's kernels, the per-row fused MSA loop, the SS:GB stand-ins and
# the dispatcher's own pick (``saxpy-scipy`` serves only the plus monoid)
VECTOR_KEYS = PLAIN_ALGOS + ["msa-loop", "saxpy", "dot", "auto"]
# keys that run the unmasked product (a full complemented mask, which the
# pull-based ``inner``/``dot`` and ``mca`` refuse)
UNMASKED_KEYS = COMPLEMENT_ALGOS + ["saxpy", "saxpy-scipy", "auto"]


def row_problem(rng, k=30, n=40):
    """(u, B, m): a 1×k integer row, a k×n operand and a 1×n mask row."""
    u = csr_from_dense(rng.integers(0, 3, size=(1, k)).astype(float))
    B = csr_random(k, n, density=0.2, rng=rng, values="randint")
    m = csr_from_dense((rng.random((1, n)) < 0.3).astype(float))
    return u, B, m


@pytest.mark.parametrize("alg", VECTOR_KEYS)
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_row_matches_oracle(rng, alg, semiring):
    u, B, m = row_problem(rng)
    v = masked_spgemm(u, B, Mask.from_matrix(m), algorithm=alg,
                      semiring=semiring)
    assert v.shape == (1, B.ncols)
    assert_masked_product_correct(v, u, B, m, semiring)


@pytest.mark.parametrize("alg", COMPLEMENT_ALGOS)
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_row_complement_matches_oracle(rng, alg, semiring):
    u, B, m = row_problem(rng)
    v = masked_spgemm(u, B, Mask.from_matrix(m, complemented=True),
                      algorithm=alg, semiring=semiring)
    assert_masked_product_correct(v, u, B, m, semiring, complemented=True)


@pytest.mark.parametrize("alg", UNMASKED_KEYS)
def test_row_without_mask_is_plain_product(rng, alg):
    u, B, _ = row_problem(rng)
    v = masked_spgemm(u, B, None, algorithm=alg)
    assert np.allclose(v.to_dense(), u.to_dense() @ B.to_dense())


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_row_under_empty_mask_is_empty(rng, alg):
    u, B, _ = row_problem(rng)
    v = masked_spgemm(u, B, csr_from_dense(np.zeros((1, B.ncols))),
                      algorithm=alg)
    assert v.shape == (1, B.ncols)
    assert v.nnz == 0


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_min_plus_row_is_one_relaxation_round(rng, alg):
    """One tropical u·B step under an all-ones mask is one round of
    Bellman-Ford edge relaxation from the distances in ``u``."""
    u, B, _ = row_problem(rng)
    everywhere = csr_from_dense(np.ones((1, B.ncols)))
    v = masked_spgemm(u, B, everywhere, algorithm=alg, semiring=MIN_PLUS)
    want = np.full(B.ncols, np.inf)
    for t, du in zip(u.indices, u.data):
        for p in range(B.indptr[t], B.indptr[t + 1]):
            j = B.indices[p]
            want[j] = min(want[j], du + B.data[p])
    got = np.full(B.ncols, np.inf)
    got[v.indices] = v.data
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.allclose(got[np.isfinite(got)], want[np.isfinite(want)])


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_row_reference_tier_equals_vectorized(rng, alg):
    u, B, m = row_problem(rng)
    mask = Mask.from_matrix(m)
    r = masked_spgemm(u, B, mask, algorithm=alg, tier="reference")
    assert r.equals(masked_spgemm(u, B, mask, algorithm=alg))


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_row_two_phase_equals_one_phase(rng, alg):
    u, B, m = row_problem(rng)
    mask = Mask.from_matrix(m)
    two = masked_spgemm(u, B, mask, algorithm=alg, phases=2)
    assert two.equals(masked_spgemm(u, B, mask, algorithm=alg))


def test_row_shape_errors(rng):
    u, B, m = row_problem(rng)
    wide_u = csr_random(1, B.nrows + 1, density=0.3, rng=rng)
    with pytest.raises(ShapeError):
        masked_spgemm(wide_u, B, m)
    wide_m = csr_random(1, B.ncols + 1, density=0.3, rng=rng)
    with pytest.raises(MaskError):
        masked_spgemm(u, B, wide_m)
