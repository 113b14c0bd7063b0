"""Parallel-layer tests: partitioning invariants, executor equivalence,
and the simulated work/span model."""

import numpy as np
import pytest

from conftest import COMPLEMENT_ALGOS, PLAIN_ALGOS, make_triple
from repro.core import masked_spgemm
from repro.mask import Mask
from repro.parallel import (
    SerialExecutor,
    SimulatedExecutor,
    ThreadExecutor,
    balanced_partition,
    estimate_row_weights,
    parallel_masked_spgemm,
    uniform_partition,
)
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.sparse import csr_random


# --------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------- #
class TestPartition:
    def test_uniform_covers_all_rows_in_order(self):
        chunks = uniform_partition(10, 3)
        flat = np.concatenate(chunks)
        assert np.array_equal(flat, np.arange(10))
        assert all(c.size > 0 for c in chunks)

    def test_uniform_more_chunks_than_rows(self):
        chunks = uniform_partition(3, 10)
        assert np.array_equal(np.concatenate(chunks), np.arange(3))

    def test_uniform_rejects_bad_nchunks(self):
        with pytest.raises(ValueError):
            uniform_partition(5, 0)

    def test_balanced_covers_all_rows(self):
        w = np.array([1.0, 100.0, 1.0, 1.0, 100.0, 1.0])
        chunks = balanced_partition(w, 3)
        assert np.array_equal(np.concatenate(chunks), np.arange(6))

    def test_balanced_isolates_heavy_rows(self):
        w = np.zeros(100)
        w[0] = 1000.0
        w[50] = 1000.0
        chunks = balanced_partition(w, 4)
        # the two heavy rows must not share a chunk
        owner = {}
        for ci, c in enumerate(chunks):
            for r in c:
                owner[int(r)] = ci
        assert owner[0] != owner[50]

    def test_balanced_zero_weights_fall_back(self):
        chunks = balanced_partition(np.zeros(8), 2)
        assert np.array_equal(np.concatenate(chunks), np.arange(8))

    def test_balanced_empty(self):
        assert balanced_partition(np.array([]), 3) == []

    def test_weights_positive_and_sized(self, rng):
        A, B, M = make_triple(rng)
        for alg in ("msa", "inner"):
            w = estimate_row_weights(A, B, Mask.from_matrix(M), alg)
            assert w.shape == (A.nrows,)
            assert np.all(w >= 0)

    def test_inner_weights_track_dot_cost(self, rng):
        # a mask row over heavy B columns must weigh more than an empty row
        A = csr_random(2, 10, density=0.5, rng=rng)
        B = csr_random(10, 4, density=0.9, rng=rng)
        from repro.sparse import CSRMatrix

        M = CSRMatrix([0, 4, 4], [0, 1, 2, 3], np.ones(4), (2, 4))
        w = estimate_row_weights(A, B, Mask.from_matrix(M), "inner")
        assert w[0] > w[1]


# --------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------- #
class TestExecutors:
    @pytest.mark.parametrize("make_exec", [
        lambda: SerialExecutor(),
        lambda: ThreadExecutor(2),
        lambda: SimulatedExecutor(3),
    ], ids=["serial", "thread", "simulated"])
    @pytest.mark.parametrize("alg", PLAIN_ALGOS)
    def test_identical_to_serial(self, rng, make_exec, alg):
        A, B, M = make_triple(rng, m=40, k=30, n=45)
        mask = Mask.from_matrix(M)
        want = masked_spgemm(A, B, mask, algorithm=alg)
        ex = make_exec()
        got = masked_spgemm(A, B, mask, algorithm=alg, executor=ex)
        assert got.equals(want)
        ex.close()

    @pytest.mark.parametrize("alg", COMPLEMENT_ALGOS)
    def test_complement_parallel(self, rng, alg):
        A, B, M = make_triple(rng, dm=0.08)
        mask = Mask.from_matrix(M, complemented=True)
        want = masked_spgemm(A, B, mask, algorithm=alg)
        got = masked_spgemm(A, B, mask, algorithm=alg,
                            executor=SimulatedExecutor(4))
        assert got.equals(want)

    def test_two_phase_parallel(self, rng):
        A, B, M = make_triple(rng)
        mask = Mask.from_matrix(M)
        want = masked_spgemm(A, B, mask, algorithm="msa")
        got = masked_spgemm(A, B, mask, algorithm="msa", phases=2,
                            executor=SimulatedExecutor(2))
        assert got.equals(want)

    def test_simulated_model_sanity(self, rng):
        A, B, M = make_triple(rng, m=60, k=50, n=60, da=0.2, db=0.2, dm=0.3)
        ex = SimulatedExecutor(4)
        masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa", executor=ex)
        # makespan can never beat serial/p nor exceed serial
        assert ex.last_makespan_seconds <= ex.last_serial_seconds + 1e-12
        assert ex.last_makespan_seconds >= ex.last_serial_seconds / 4 - 1e-12
        assert 1.0 <= ex.speedup() <= 4.0 + 1e-9
        assert len(ex.last_chunk_seconds) >= 1

    def test_simulated_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SimulatedExecutor(0)

    def test_thread_executor_context_manager(self):
        with ThreadExecutor(2) as ex:
            assert ex.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_thread_executor_propagates_errors_and_survives(self):
        def boom(x):
            if x == 2:
                raise ValueError("chunk 2 failed")
            return x

        with ThreadExecutor(2) as ex:
            with pytest.raises(ValueError, match="chunk 2"):
                ex.map(boom, [1, 2, 3])
            # the pool is still serviceable, and results keep input order
            assert ex.map(lambda x: -x, list(range(8))) == \
                [-x for x in range(8)]

    def test_empty_matrix_parallel(self, rng):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.empty((0, 0))
        B = CSRMatrix.empty((0, 0))
        mask = Mask.full((0, 0))
        got = parallel_masked_spgemm(A, B, mask, algorithm="msa",
                                     executor=SerialExecutor())
        assert got.shape == (0, 0) and got.nnz == 0
