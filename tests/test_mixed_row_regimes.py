"""Kernels on operands whose rows span every cost regime at once.

One third of the rows are single-entry rows of ``A`` under dense mask rows
(few products, many mask entries), one third are hub rows under single-entry
mask rows (many products, a tiny mask), and one third sit in between. A
kernel that keys any per-row state on the previous row's regime — a
workspace size, a hash capacity, a heap bound — shows it here.
"""

import numpy as np
import pytest

from conftest import (
    ALL_SEMIRINGS,
    COMPLEMENT_ALGOS,
    PLAIN_ALGOS,
    assert_masked_product_correct,
)
from repro.core import masked_spgemm, registry
from repro.mask import Mask
from repro.parallel import ThreadExecutor
from repro.semiring import PLUS_TIMES
from repro.sparse import COOMatrix, csr_random
from repro.validation import INDEX_DTYPE


def mixed_problem(rng, n=60):
    """(A, B, M) with n/3 sparse rows, n/3 hub rows and n/3 moderate rows."""
    third = n // 3
    a_rows, a_cols, m_rows, m_cols = [], [], [], []
    for i in range(n):
        if i < third:
            a_width, m_width = 1, 30
        elif i < 2 * third:
            a_width, m_width = 20, 1
        else:
            a_width, m_width = 4, 6
        a_rows += [i] * a_width
        a_cols += rng.choice(n, size=a_width, replace=False).tolist()
        m_rows += [i] * m_width
        m_cols += rng.choice(n, size=m_width, replace=False).tolist()
    A = COOMatrix(np.array(a_rows), np.array(a_cols),
                  np.ones(len(a_rows)), (n, n)).to_csr()
    B = csr_random(n, n, density=0.15, rng=rng, values="randint")
    M = COOMatrix(np.array(m_rows), np.array(m_cols),
                  np.ones(len(m_rows)), (n, n)).to_csr()
    return A, B, M


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_mixed_rows_match_oracle(rng, alg, semiring):
    A, B, M = mixed_problem(rng)
    C = masked_spgemm(A, B, Mask.from_matrix(M), algorithm=alg,
                      semiring=semiring)
    assert_masked_product_correct(C, A, B, M, semiring)


@pytest.mark.parametrize("alg", COMPLEMENT_ALGOS)
def test_mixed_rows_complement_match_oracle(rng, alg):
    A, B, M = mixed_problem(rng)
    C = masked_spgemm(A, B, Mask.from_matrix(M, complemented=True),
                      algorithm=alg)
    assert_masked_product_correct(C, A, B, M, PLUS_TIMES, complemented=True)


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_mixed_rows_parallel_two_phase_equal_serial(rng, alg):
    A, B, M = mixed_problem(rng)
    mask = Mask.from_matrix(M)
    want = masked_spgemm(A, B, mask, algorithm=alg)
    with ThreadExecutor(2) as ex:
        got = masked_spgemm(A, B, mask, algorithm=alg, phases=2, executor=ex)
    assert got.equals(want)


@pytest.mark.parametrize("alg", PLAIN_ALGOS)
def test_mixed_rows_row_subset_matches_full(rng, alg):
    """A chunk taking one row from each regime, out of order, reproduces
    those rows of the full product."""
    A, B, M = mixed_problem(rng)
    mask = Mask.from_matrix(M)
    full = masked_spgemm(A, B, mask, algorithm="msa")
    rows = np.array([45, 3, 27], dtype=INDEX_DTYPE)
    block = registry.get_spec(alg).numeric(A, B, mask, PLUS_TIMES, rows)
    pos = 0
    for t, i in enumerate(rows):
        k = int(block.sizes[t])
        lo, hi = full.indptr[i], full.indptr[i + 1]
        assert k == hi - lo, i
        assert np.array_equal(block.cols[pos:pos + k], full.indices[lo:hi])
        assert np.allclose(block.vals[pos:pos + k], full.data[lo:hi])
        pos += k


def test_mixed_rows_auto_equals_msa(rng):
    A, B, M = mixed_problem(rng)
    mask = Mask.from_matrix(M)
    assert masked_spgemm(A, B, mask).equals(
        masked_spgemm(A, B, mask, algorithm="msa"))
