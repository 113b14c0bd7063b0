"""Determinism pins and order-independence properties.

HPC libraries live and die by reproducibility: seeded generators must be
stable across runs (and releases — these tests pin snapshot values), and
accumulators must be insertion-order independent for commutative monoids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mask, masked_spgemm, triangle_count
from repro.accumulators import MSAAccumulator
from repro.graphs import erdos_renyi, load_graph, rmat
from repro.sparse import csr_random


class TestSeedStability:
    """Snapshot pins: if a generator change alters these, every archived
    benchmark number in results/ silently stops being reproducible."""

    def test_rmat_snapshot(self):
        g = rmat(8, 8, rng=1234)
        assert g.nnz == 2584
        assert int(g.indices[:5].sum()) == 15

    def test_er_snapshot(self):
        g = erdos_renyi(500, 4, rng=1234, symmetrize=True)
        assert g.nnz == 3964

    def test_suite_snapshot(self):
        assert load_graph("rmat-s10-e8").nnz == 12080
        assert load_graph("grid-24").nnz == 2 * 2 * 24 * 23

    def test_csr_random_snapshot(self):
        m = csr_random(100, 100, density=0.05, rng=1234)
        assert m.nnz == 486

    def test_generation_is_repeatable_within_process(self):
        assert rmat(7, 8, rng=99).equals(rmat(7, 8, rng=99))
        assert triangle_count(rmat(7, 8, rng=99)) == \
            triangle_count(rmat(7, 8, rng=99))


class TestOrderIndependence:
    @given(st.permutations(list(range(8))), st.data())
    @settings(max_examples=40, deadline=None)
    def test_msa_insertion_order_irrelevant(self, order, data):
        """Integer-valued inserts in any order accumulate identically
        (commutative monoid; integers avoid FP-reassociation noise)."""
        vals = data.draw(st.lists(st.integers(-5, 5), min_size=8, max_size=8))
        acc1 = MSAAccumulator(10)
        acc2 = MSAAccumulator(10)
        key = 3
        acc1.set_allowed(key)
        acc2.set_allowed(key)
        for v in vals:
            acc1.insert(key, float(v))
        for i in order:
            acc2.insert(key, float(vals[i]))
        assert acc1.remove(key) == acc2.remove(key)

    def test_chunking_does_not_change_results(self, rng):
        """Any row partitioning must reproduce the serial matrix exactly —
        the property that makes the parallel layer safe."""
        from repro.parallel import SerialExecutor, parallel_masked_spgemm

        A = csr_random(50, 50, density=0.1, rng=rng, values="randint")
        B = csr_random(50, 50, density=0.1, rng=rng, values="randint")
        M = csr_random(50, 50, density=0.2, rng=rng)
        mask = Mask.from_matrix(M)
        base = masked_spgemm(A, B, mask, algorithm="hash")
        for nchunks in (1, 2, 7, 50):
            got = parallel_masked_spgemm(A, B, mask, algorithm="hash",
                                         executor=SerialExecutor(),
                                         nchunks=nchunks)
            assert got.equals(base)


class TestFullMaskPaths:
    """Mask.full (complement of empty) = plain SpGEMM through every
    complement-capable kernel."""

    def test_all_complement_kernels(self, rng):
        from repro.core import spgemm

        A = csr_random(30, 25, density=0.15, rng=rng, values="randint")
        B = csr_random(25, 35, density=0.15, rng=rng, values="randint")
        want = spgemm(A, B)
        for alg in ("msa", "hash", "heap", "heapdot"):
            got = masked_spgemm(A, B, None, algorithm=alg)
            assert got.allclose_values(want), alg

    def test_empty_pattern_plain_mask_yields_nothing(self, rng):
        from repro.sparse import CSRMatrix

        A = csr_random(10, 10, density=0.3, rng=rng)
        B = csr_random(10, 10, density=0.3, rng=rng)
        empty = Mask.from_matrix(CSRMatrix.empty((10, 10)))
        for alg in ("msa", "hash", "mca", "heap", "inner"):
            assert masked_spgemm(A, B, empty, algorithm=alg).nnz == 0
