"""Chunk-fused kernel tests: ESC and the fused MSA passes.

The contract is strict — the fused kernels must be **bit-identical** to the
reference tier (same pattern, same float bits): fusion reorganises the
computation across rows but accumulates every output entry's products in
the same Gustavson order. Covered here:

* property test: ``esc`` ≡ reference tier on random CSR grids, including
  complemented masks and empty rows;
* fused MSA ≡ the retained per-row loop (incl. the ``np.bincount`` fast
  path) on every semiring;
* the ``plan=`` fast path and the parallel runner's chunked execution;
* the int64 composite-key guard (``key_safe_blocks``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_masked_product_correct, make_triple
from repro.core import build_plan, masked_spgemm
from repro.core import msa_kernel
from repro.core.esc_kernel import numeric_rows as esc_numeric
from repro.core.esc_kernel import symbolic_rows as esc_symbolic
from repro.core.expand import key_safe_blocks
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import auto_select
from repro.mask import Mask
from repro.parallel.executor import ThreadExecutor
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, csr_random
from repro.validation import INDEX_DTYPE

SEMIRINGS = [PLUS_TIMES, PLUS_PAIR, MIN_PLUS]


@st.composite
def esc_problem(draw, max_dim=12, max_nnz=40):
    """Random (A, B, M, complemented) with empty rows likely (nnz may be 0)."""
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))

    def mat(nr, nc):
        nnz = draw(st.integers(0, max_nnz))
        rows = draw(st.lists(st.integers(0, nr - 1), min_size=nnz, max_size=nnz))
        cols = draw(st.lists(st.integers(0, nc - 1), min_size=nnz, max_size=nnz))
        vals = [float(v) for v in draw(
            st.lists(st.integers(-4, 4), min_size=nnz, max_size=nnz))]
        return COOMatrix(np.array(rows, dtype=np.int64),
                         np.array(cols, dtype=np.int64),
                         np.array(vals), (nr, nc)).to_csr()

    return mat(m, k), mat(k, n), mat(m, n), draw(st.booleans())


@given(esc_problem())
@settings(max_examples=60, deadline=None)
def test_esc_equals_reference_property(problem):
    """esc ≡ reference tier, bit for bit, plain and complemented."""
    A, B, M, complemented = problem
    mask = Mask.from_matrix(M, complemented=complemented)
    ref = reference_masked_spgemm(A, B, mask, "msa")
    got = masked_spgemm(A, B, mask, algorithm="esc")
    assert got.same_pattern(ref)
    assert np.array_equal(got.data, ref.data)


@given(esc_problem())
@settings(max_examples=40, deadline=None)
def test_esc_plan_fast_path_property(problem):
    """Two-phase esc through a prebuilt plan: symbolic sizes are reused and
    cross-checked, result identical to the planless call."""
    A, B, M, complemented = problem
    mask = Mask.from_matrix(M, complemented=complemented)
    plan = build_plan(A, B, mask, algorithm="esc", phases=2)
    direct = masked_spgemm(A, B, mask, algorithm="esc", phases=2)
    planned = masked_spgemm(A, B, mask, plan=plan, phases=2)
    assert plan.nnz == direct.nnz
    assert planned.equals(direct)


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("complemented", [False, True])
def test_esc_all_semirings_vs_oracle(rng, semiring, complemented):
    A, B, M = make_triple(rng, dm=0.1)
    C = masked_spgemm(A, B, Mask.from_matrix(M, complemented=complemented),
                      algorithm="esc", semiring=semiring)
    assert_masked_product_correct(C, A, B, M, semiring,
                                  complemented=complemented)


def test_esc_empty_rows_and_matrices(rng):
    """Rows with no mask entries, no A entries, and fully empty operands."""
    A = CSRMatrix.empty((6, 5))
    B = CSRMatrix.empty((5, 7))
    M = csr_random(6, 7, density=0.3, rng=rng)
    for complemented in (False, True):
        C = masked_spgemm(A, B, Mask.from_matrix(M, complemented=complemented),
                          algorithm="esc", phases=2)
        assert C.nnz == 0
    # a matrix whose middle rows are empty
    A = CSRMatrix(np.array([0, 2, 2, 2, 4]), np.array([0, 1, 0, 2]),
                  np.array([1.0, 2.0, 3.0, 4.0]), (4, 3))
    B = csr_random(3, 6, density=0.5, rng=rng, values="randint")
    M = csr_random(4, 6, density=0.4, rng=rng)
    mask = Mask.from_matrix(M)
    ref = reference_masked_spgemm(A, B, mask, "msa")
    got = masked_spgemm(A, B, mask, algorithm="esc")
    assert got.same_pattern(ref) and np.array_equal(got.data, ref.data)


def test_esc_full_mask_is_plain_spgemm(rng):
    """Mask.full (complement of empty) through esc == unmasked product."""
    from repro.core import spgemm

    A = csr_random(20, 15, density=0.2, rng=rng, values="randint")
    B = csr_random(15, 18, density=0.2, rng=rng, values="randint")
    full = Mask.full((20, 18))
    got = masked_spgemm(A, B, full, algorithm="esc", phases=2)
    want = spgemm(A, B)
    assert got.same_pattern(want) and np.array_equal(got.data, want.data)


def test_esc_row_subsets_and_symbolic(rng):
    """Chunk contract: arbitrary row subsets slice the full result, and the
    symbolic pass predicts exact sizes."""
    A, B, M = make_triple(rng, m=24)
    mask = Mask.from_matrix(M)
    full = masked_spgemm(A, B, mask, algorithm="esc")
    rows = np.array([1, 5, 6, 17, 23], dtype=INDEX_DTYPE)
    block = esc_numeric(A, B, mask, PLUS_TIMES, rows)
    sym = esc_symbolic(A, B, mask, rows)
    assert np.array_equal(block.sizes, sym)
    pos = 0
    for t, i in enumerate(rows):
        k = int(block.sizes[t])
        lo, hi = full.indptr[i], full.indptr[i + 1]
        assert k == hi - lo
        assert np.array_equal(block.cols[pos:pos + k], full.indices[lo:hi])
        assert np.array_equal(block.vals[pos:pos + k], full.data[lo:hi])
        pos += k


def test_esc_parallel_runner_chunks(rng):
    """esc through the row-parallel driver == serial esc."""
    A, B, M = make_triple(rng, m=60, k=40, n=50)
    mask = Mask.from_matrix(M)
    serial = masked_spgemm(A, B, mask, algorithm="esc", phases=2)
    with ThreadExecutor(4) as ex:
        par = masked_spgemm(A, B, mask, algorithm="esc", phases=2, executor=ex)
    assert par.equals(serial)


def test_esc_through_service_engine(rng, monkeypatch):
    """Engine requests for esc — two-phase ones included — run one-phase
    (no symbolic pass) and repeat bit-identically."""
    import dataclasses

    from repro.core import registry
    from repro.service import Engine, Request

    A, B, M = make_triple(rng, m=40, k=30, n=35)
    eng = Engine()
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    req = Request(a="A", b="B", mask="M", algorithm="esc", phases=2)
    real_get_spec = registry.get_spec

    def no_symbolic(*args):
        raise AssertionError("symbolic pass ran")

    monkeypatch.setattr(registry, "get_spec", lambda key: dataclasses.replace(
        real_get_spec(key), symbolic=no_symbolic))
    cold = eng.submit(req)
    warm = eng.submit(req)
    monkeypatch.undo()
    assert warm.stats.algorithm == "esc"
    assert warm.result.equals(cold.result)
    assert warm.result.equals(masked_spgemm(A, B, Mask.from_matrix(M),
                                            algorithm="esc", phases=2))


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("complemented", [False, True])
def test_msa_fused_equals_loop(rng, semiring, complemented):
    """The fused MSA passes must replicate the retained per-row loop
    (incl. its np.bincount fast path) bit for bit."""
    A, B, M = make_triple(rng, dm=0.12)
    mask = Mask.from_matrix(M, complemented=complemented)
    rows = np.arange(A.nrows, dtype=INDEX_DTYPE)
    fused = msa_kernel.numeric_rows(A, B, mask, semiring, rows)
    loop = msa_kernel.numeric_rows_loop(A, B, mask, semiring, rows)
    assert np.array_equal(fused.sizes, loop.sizes)
    assert np.array_equal(fused.cols, loop.cols)
    assert np.array_equal(fused.vals, loop.vals)
    assert np.array_equal(msa_kernel.symbolic_rows(A, B, mask, rows),
                          msa_kernel.symbolic_rows_loop(A, B, mask, rows))


def test_fused_blocks_bounds_stream(rng):
    """fused_blocks caps each block's partial-product stream at max_flops
    (single rows may exceed it) and covers the chunk exactly once."""
    from repro.core.expand import fused_blocks, per_row_flops

    A = csr_random(40, 30, density=0.3, rng=rng)
    B = csr_random(30, 35, density=0.3, rng=rng)
    rows = np.arange(40, dtype=INDEX_DTYPE)
    flops = per_row_flops(A, B)
    blocks = fused_blocks(A, B, rows, max_flops=50)
    assert np.array_equal(np.concatenate(blocks), rows)
    for b in blocks:
        assert b.size >= 1
        if b.size > 1:
            assert int(flops[b].sum()) <= 50
    # a generous budget leaves the chunk whole
    assert len(fused_blocks(A, B, rows, max_flops=int(flops.sum()))) == 1


@pytest.mark.parametrize("complemented", [False, True])
def test_fused_kernels_correct_under_tiny_flops_budget(rng, monkeypatch,
                                                       complemented):
    """Results are invariant to the memory-bounding block splits."""
    import functools

    from repro.core import esc_kernel
    from repro.core.expand import fused_blocks

    A, B, M = make_triple(rng, m=40, k=30, n=35)
    mask = Mask.from_matrix(M, complemented=complemented)
    rows = np.arange(40, dtype=INDEX_DTYPE)
    want_msa = msa_kernel.numeric_rows(A, B, mask, PLUS_TIMES, rows)
    want_esc = esc_kernel.numeric_rows(A, B, mask, PLUS_TIMES, rows)
    tiny = functools.partial(fused_blocks, max_flops=7)
    monkeypatch.setattr(msa_kernel, "fused_blocks", tiny)
    monkeypatch.setattr(esc_kernel, "fused_blocks", tiny)
    for mod, want in ((msa_kernel, want_msa), (esc_kernel, want_esc)):
        got = mod.numeric_rows(A, B, mask, PLUS_TIMES, rows)
        assert np.array_equal(got.sizes, want.sizes)
        assert np.array_equal(got.cols, want.cols)
        assert np.array_equal(got.vals, want.vals)
        assert np.array_equal(mod.symbolic_rows(A, B, mask, rows), want.sizes)


def test_key_safe_blocks_guard():
    """The int64 composite-key guard splits chunks only when keys could
    overflow, and the split covers every row exactly once."""
    rows = np.arange(10, dtype=INDEX_DTYPE)
    assert [b.tolist() for b in key_safe_blocks(rows, 1 << 20)] == [rows.tolist()]
    # absurd ncols forces blocking: limit = 2^63-1 // ncols = 3
    huge = (np.iinfo(np.int64).max // 3)
    blocks = key_safe_blocks(rows, huge)
    assert len(blocks) == 4
    assert np.array_equal(np.concatenate(blocks), rows)
    assert max(b.size for b in blocks) <= 3


def test_auto_select_routes_short_rows_to_msa(rng, native_mode):
    """Low-degree (graph-like) inputs go to the chunk-fused msa in the
    fused fallback, plain or complemented, and so do denser rows still
    short of ``LOOP_ROW_FLOPS`` products; with the compiled tier live
    every one of these products goes to msa-native instead."""
    from repro.native import native_available

    n = 512
    A = csr_random(n, n, density=4 / n, rng=rng)   # ~4 nnz/row
    M = csr_random(n, n, density=4 / n, rng=rng)
    D = csr_random(64, 64, density=0.5, rng=rng)   # ~25 nnz/row → ~630 flops
    DM = csr_random(64, 64, density=0.5, rng=rng)
    cases = [((A, A, Mask.from_matrix(M)), "msa"),
             ((A, A, Mask.from_matrix(M, complemented=True)), "msa"),
             ((D, D, Mask.from_matrix(DM)), "msa")]
    native = native_available()
    for operands, pick in cases:
        assert auto_select(*operands) == ("msa-native" if native else pick)
    native_mode("off")
    for operands, pick in cases:
        assert auto_select(*operands) == pick


@pytest.mark.parametrize("alg", ["esc", "heap"])
def test_sort_based_kernels_sum_left_to_right(alg):
    """Three partial products whose float sum depends on the order:
    (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3). The sort-based kernels must
    accumulate in Gustavson order like msa and the reference tier."""
    A = CSRMatrix(np.array([0, 3]), np.array([0, 1, 2]),
                  np.array([0.1, 0.2, 0.3]), (1, 3))
    B = CSRMatrix(np.array([0, 1, 2, 3]), np.array([0, 0, 0]),
                  np.ones(3), (3, 1))
    mask = Mask.from_matrix(CSRMatrix(np.array([0, 1]), np.array([0]),
                                      np.ones(1), (1, 1)))
    want = reference_masked_spgemm(A, B, mask, algorithm="msa")
    assert want.data[0] == (0.1 + 0.2) + 0.3
    for phases in (1, 2):
        got = masked_spgemm(A, B, mask, algorithm=alg, phases=phases)
        assert got.data.tobytes() == want.data.tobytes()
