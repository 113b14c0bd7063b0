"""Direct-write numeric execution + the chunk-fused hash/heap kernels.

The PR-4 contracts:

* the chunk-fused ``hash`` and ``heap`` kernels are **bit-identical** to
  their retained ``*_rows_loop`` baselines and the pure-Python reference
  tier, across semirings, plain and complemented masks, empty rows and
  empty outputs;
* the direct-write numeric path (two-phase with known row sizes →
  preallocate ``indptr/indices/data`` → chunks scatter into disjoint
  slices) produces results identical to the stitch path on every executor;
* two-phase runs without a plan capture their symbolic results into the
  row sizes that drive direct write, matching a warm replay of the built
  plan on every executor;
* a stale plan fails loudly on the direct path (sizes validated before any
  write);
* chunk sizing comes from the cache-aware flops budget
  (:func:`repro.parallel.partition.chunk_budget`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_masked_product_correct, make_triple
from repro.core import build_plan, masked_spgemm
from repro.core import hash_kernel, heap_kernel
from repro.core.plan import SymbolicPlan
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import get_spec
from repro.core.types import stitch_blocks, write_block_into
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.parallel.executor import (
    SerialExecutor,
    SimulatedExecutor,
    ThreadExecutor,
)
from repro.parallel.partition import (
    FUSED_BYTES_PER_FLOP,
    budget_chunk_count,
    chunk_budget,
)
from repro.parallel.runner import (
    parallel_masked_spgemm,
    uses_direct_write,
)
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, csr_random
from repro.validation import INDEX_DTYPE

SEMIRINGS = [PLUS_TIMES, PLUS_PAIR, MIN_PLUS]
FUSED = ["esc", "msa", "hash", "heap"]


@st.composite
def fused_problem(draw, max_dim=12, max_nnz=40):
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


def _assert_blocks_equal(got, want):
    assert np.array_equal(got.sizes, want.sizes)
    assert np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)


# --------------------------------------------------------------------- #
# fused hash / heap ≡ per-row loops ≡ reference tier
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("module,name", [(hash_kernel, "hash"),
                                         (heap_kernel, "heap")])
@given(problem=fused_problem())
@settings(max_examples=40, deadline=None)
def test_fused_equals_loop_property(module, name, problem):
    """Fused hash/heap ≡ their per-row loops, bit for bit, plain and
    complemented, including empty rows/outputs."""
    A, B, M, complemented = problem
    mask = Mask.from_matrix(M, complemented=complemented)
    rows = np.arange(A.nrows, dtype=INDEX_DTYPE)
    for semiring in (PLUS_TIMES, MIN_PLUS):
        fused = module.numeric_rows(A, B, mask, semiring, rows)
        loop = module.numeric_rows_loop(A, B, mask, semiring, rows)
        _assert_blocks_equal(fused, loop)
    assert np.array_equal(module.symbolic_rows(A, B, mask, rows),
                          module.symbolic_rows_loop(A, B, mask, rows))


@pytest.mark.parametrize("algorithm", ["hash", "heap"])
@given(problem=fused_problem())
@settings(max_examples=30, deadline=None)
def test_fused_equals_reference_property(algorithm, problem):
    """Fused hash/heap ≡ the pure-Python reference tier, bit for bit."""
    A, B, M, complemented = problem
    mask = Mask.from_matrix(M, complemented=complemented)
    ref = reference_masked_spgemm(A, B, mask, algorithm)
    got = masked_spgemm(A, B, mask, algorithm=algorithm)
    assert got.same_pattern(ref)
    assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("module", [hash_kernel, heap_kernel])
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("complemented", [False, True])
def test_fused_all_semirings_vs_oracle(rng, module, semiring, complemented):
    A, B, M = make_triple(rng, dm=0.12)
    mask = Mask.from_matrix(M, complemented=complemented)
    rows = np.arange(A.nrows, dtype=INDEX_DTYPE)
    block = module.numeric_rows(A, B, mask, semiring, rows)
    C = stitch_blocks([block], A.nrows, B.ncols)
    assert_masked_product_correct(C, A, B, M, semiring,
                                  complemented=complemented)
    _assert_blocks_equal(block,
                         module.numeric_rows_loop(A, B, mask, semiring, rows))


@pytest.mark.parametrize("module", [hash_kernel, heap_kernel])
@pytest.mark.parametrize("complemented", [False, True])
def test_fused_hash_heap_under_tiny_flops_budget(rng, monkeypatch, module,
                                                 complemented):
    """Results are invariant to the memory-bounding fused-block splits."""
    import functools

    from repro.core.expand import fused_blocks

    A, B, M = make_triple(rng, m=40, k=30, n=35)
    mask = Mask.from_matrix(M, complemented=complemented)
    rows = np.arange(40, dtype=INDEX_DTYPE)
    want = module.numeric_rows(A, B, mask, PLUS_TIMES, rows)
    monkeypatch.setattr(module, "fused_blocks",
                        functools.partial(fused_blocks, max_flops=7))
    got = module.numeric_rows(A, B, mask, PLUS_TIMES, rows)
    _assert_blocks_equal(got, want)
    assert np.array_equal(module.symbolic_rows(A, B, mask, rows), want.sizes)


def test_fused_hash_row_subsets_match_full(rng):
    """Chunk contract: arbitrary (non-contiguous) row subsets slice the
    full result — what the hybrid kernel and the runner rely on."""
    A, B, M = make_triple(rng, m=24)
    mask = Mask.from_matrix(M)
    rows = np.array([1, 5, 6, 17, 23], dtype=INDEX_DTYPE)
    for module in (hash_kernel, heap_kernel):
        full = stitch_blocks(
            [module.numeric_rows(A, B, mask, PLUS_TIMES,
                                 np.arange(24, dtype=INDEX_DTYPE))], 24, B.ncols)
        block = module.numeric_rows(A, B, mask, PLUS_TIMES, rows)
        assert np.array_equal(block.sizes,
                              module.symbolic_rows(A, B, mask, rows))
        pos = 0
        for t, i in enumerate(rows):
            k = int(block.sizes[t])
            lo, hi = full.indptr[i], full.indptr[i + 1]
            assert k == hi - lo
            assert np.array_equal(block.cols[pos:pos + k], full.indices[lo:hi])
            assert np.array_equal(block.vals[pos:pos + k], full.data[lo:hi])
            pos += k


# --------------------------------------------------------------------- #
# direct-write vs stitch: every executor, every fused kernel
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", FUSED)
@pytest.mark.parametrize("complemented", [False, True])
def test_direct_write_equals_stitch_all_executors(rng, algorithm,
                                                  complemented):
    A, B, M = make_triple(rng, m=60, k=40, n=50)
    mask = Mask.from_matrix(M, complemented=complemented)
    plan = build_plan(A, B, mask, algorithm=algorithm, phases=2)
    stitched = parallel_masked_spgemm(
        A, B, mask, algorithm=algorithm, phases=2, plan=plan,
        direct_write=False)
    executors = [None, SerialExecutor(), ThreadExecutor(3),
                 SimulatedExecutor(3)]
    for ex in executors:
        direct = masked_spgemm(A, B, mask, algorithm=algorithm, phases=2,
                               plan=plan, executor=ex)
        assert direct.same_pattern(stitched), (algorithm, ex)
        assert np.array_equal(direct.data, stitched.data), (algorithm, ex)
        if isinstance(ex, ThreadExecutor):
            ex.close()


@pytest.mark.parametrize("algorithm", FUSED)
def test_direct_write_empty_rows_and_empty_output(rng, algorithm):
    """Empty operands, empty masks, and rows with no entries go through the
    preallocation path (zero-length arrays) without incident."""
    A = CSRMatrix.empty((6, 5))
    B = CSRMatrix.empty((5, 7))
    M = csr_random(6, 7, density=0.3, rng=rng)
    for complemented in (False, True):
        mask = Mask.from_matrix(M, complemented=complemented)
        plan = build_plan(A, B, mask, algorithm=algorithm, phases=2)
        C = masked_spgemm(A, B, mask, algorithm=algorithm, phases=2,
                          plan=plan)
        assert C.nnz == 0 and C.shape == (6, 7)
    # middle rows empty, mask rows empty
    A = CSRMatrix(np.array([0, 2, 2, 2, 4]), np.array([0, 1, 0, 2]),
                  np.array([1.0, 2.0, 3.0, 4.0]), (4, 3))
    B = csr_random(3, 6, density=0.5, rng=rng, values="randint")
    M = CSRMatrix(np.array([0, 0, 2, 2, 3]), np.array([1, 4, 2]),
                  np.ones(3), (4, 6))
    mask = Mask.from_matrix(M)
    ref = reference_masked_spgemm(A, B, mask, algorithm)
    got = masked_spgemm(A, B, mask, algorithm=algorithm, phases=2)
    assert got.same_pattern(ref) and np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("algorithm", FUSED)
def test_direct_write_stale_plan_fails_loudly(rng, algorithm):
    """A plan whose row sizes no longer match the operands must raise before
    any out-of-slice write can corrupt neighbouring rows."""
    A, B, M = make_triple(rng, m=30)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm=algorithm, phases=2)
    total = int(plan.row_sizes.sum())
    if total == 0:
        pytest.skip("degenerate draw: empty output")
    stale_sizes = plan.row_sizes.copy()
    # shift one entry between rows: same total nnz, wrong per-row split —
    # the hardest stale plan to catch (an nnz-sum check would pass)
    src = int(np.argmax(stale_sizes))
    dst = (src + 1) % stale_sizes.size
    stale_sizes[src] -= 1
    stale_sizes[dst] += 1
    stale = SymbolicPlan(algorithm=algorithm, phases=2, shape=plan.shape,
                         row_sizes=stale_sizes)
    with pytest.raises(AlgorithmError, match="stale plan"):
        masked_spgemm(A, B, mask, algorithm=algorithm, phases=2, plan=stale)


def test_write_block_into_validates_sizes():
    from repro.core.types import RowBlock

    block = RowBlock(np.array([2, 1]), np.array([0, 3, 1]),
                     np.array([1.0, 2.0, 3.0]))
    out_c = np.zeros(5, dtype=np.int64)
    out_v = np.zeros(5)
    write_block_into(block, np.array([1, 3, 4]), out_c, out_v)
    assert np.array_equal(out_c, [0, 0, 3, 1, 0])
    assert np.array_equal(out_v, [0.0, 1.0, 2.0, 3.0, 0.0])
    with pytest.raises(AlgorithmError, match="stale plan"):
        write_block_into(block, np.array([1, 2, 4]), out_c, out_v)


def test_uses_direct_write_conditions():
    assert uses_direct_write("esc", 2)
    assert uses_direct_write("hash", 2)
    assert not uses_direct_write("esc", 1)
    assert not uses_direct_write("mca", 2)          # no numeric_into
    assert not uses_direct_write("esc", 2, row_sizes_known=False)
    assert not uses_direct_write("nonesuch", 2)
    assert get_spec("mca").numeric_into is None
    assert get_spec("heapdot").numeric_into is None


# --------------------------------------------------------------------- #
# symbolic capture: no-plan two-phase runs feed direct write
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("executor_factory",
                         [lambda: None, lambda: ThreadExecutor(3),
                          lambda: SimulatedExecutor(3)])
def test_no_plan_two_phase_matches_warm_replay(rng, executor_factory):
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    mask = Mask.from_matrix(M)
    built = build_plan(A, B, mask, algorithm="esc", phases=2)
    ex = executor_factory()
    C = masked_spgemm(A, B, mask, algorithm="esc", phases=2, executor=ex)
    assert np.array_equal(np.diff(C.indptr), built.row_sizes)
    warm = masked_spgemm(A, B, mask, algorithm="esc", phases=2, plan=built,
                         executor=ex)
    assert warm.equals(C)
    if isinstance(ex, ThreadExecutor):
        ex.close()


# --------------------------------------------------------------------- #
# cache-aware chunk sizing
# --------------------------------------------------------------------- #
def test_chunk_budget_formula():
    assert chunk_budget(72 * 1000) == 1000
    assert chunk_budget(72 * 1000, bytes_per_flop=36) == 2000
    assert chunk_budget(1) == 1  # floor
    assert chunk_budget() == chunk_budget(None)
    assert chunk_budget() * FUSED_BYTES_PER_FLOP <= (16 << 20)


def test_budget_chunk_count_scales_with_work_not_workers():
    w_small = np.ones(100)                      # 100 flops total
    w_big = np.full(100, 10 * chunk_budget())   # 1000 budgets of work
    assert budget_chunk_count(w_small, nworkers=1) == 1
    assert budget_chunk_count(w_small, nworkers=4) == 4   # worker floor
    assert budget_chunk_count(w_big, nworkers=1) == 1000  # cache term
    assert budget_chunk_count(w_big, nworkers=4) == 1000
    assert budget_chunk_count(np.zeros(10), nworkers=2) == 2
    assert budget_chunk_count(np.empty(0), nworkers=3) == 3
    # explicit budget
    assert budget_chunk_count(np.full(8, 5.0), 1, budget=10) == 4


def test_runner_uses_budget_chunks(rng, monkeypatch):
    """The runner's default chunk count comes from budget_chunk_count (the
    old nworkers×4 heuristic is gone)."""
    from repro.parallel import runner as runner_mod

    A, B, M = make_triple(rng, m=50, k=40, n=45)
    mask = Mask.from_matrix(M)
    seen = {}

    def spy(weights, nworkers, budget=None):
        seen["count"] = budget_chunk_count(weights, nworkers, budget)
        return seen["count"]

    monkeypatch.setattr(runner_mod, "budget_chunk_count", spy)
    parallel_masked_spgemm(A, B, mask, algorithm="msa",
                           executor=SerialExecutor())
    assert seen["count"] >= 1
