"""Failure-injection tests: corrupted structures, hostile inputs, and
resource-shaped edge cases must fail loudly (library errors), never return
wrong results or crash with raw numpy exceptions."""

import io

import numpy as np
import pytest

from repro import Mask, masked_spgemm
from repro.errors import FormatError, IOFormatError, ReproError, ShapeError
from repro.sparse import CSRMatrix, csr_random, read_matrix_market


class TestCorruptedCSR:
    def test_truncated_data_array(self):
        with pytest.raises(FormatError):
            CSRMatrix([0, 2], [0, 1], [1.0], (1, 3))

    def test_negative_nnz_regions(self):
        with pytest.raises(FormatError):
            CSRMatrix([0, 3, 2], [0, 1, 2], [1.0, 2.0, 3.0], (2, 3))

    def test_indptr_overruns_indices(self):
        with pytest.raises(FormatError):
            CSRMatrix([0, 5], [0, 1], [1.0, 2.0], (1, 3))

    def test_float_indices_are_coerced_or_rejected(self):
        # numpy would silently truncate; our coercion preserves exact ints
        m = CSRMatrix(np.array([0.0, 1.0]), np.array([2.0]), [1.0], (1, 3))
        assert m.indices.dtype == np.int64

    def test_kernels_never_validate_garbage_silently(self, rng):
        # a matrix that skipped validation (check=False) with out-of-range
        # columns must still not corrupt other operands' memory: the kernels
        # will raise IndexError from numpy rather than write out of bounds
        bad = CSRMatrix(np.array([0, 1]), np.array([99]), np.array([1.0]),
                        (1, 3), check=False)
        B = csr_random(3, 3, density=0.5, rng=rng)
        M = csr_random(1, 3, density=0.9, rng=rng)
        with pytest.raises(Exception):
            masked_spgemm(B.transpose(), bad.transpose(), None)  # shape error path
        with pytest.raises(Exception):
            masked_spgemm(bad, B, Mask.from_matrix(M), algorithm="msa")


class TestHostileMatrixMarket:
    def test_binary_garbage(self):
        with pytest.raises(IOFormatError):
            read_matrix_market(io.StringIO("\x00\x01\x02"))

    def test_header_only(self):
        with pytest.raises(IOFormatError):
            read_matrix_market(io.StringIO(
                "%%MatrixMarket matrix coordinate real general\n"))

    def test_size_line_with_words(self):
        with pytest.raises(IOFormatError):
            read_matrix_market(io.StringIO(
                "%%MatrixMarket matrix coordinate real general\nthree by 3\n"))

    def test_indices_out_of_declared_range(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n"
        with pytest.raises(ReproError):
            read_matrix_market(io.StringIO(text))

    def test_zero_based_indices_rejected(self):
        # MM is 1-based; a 0 row index becomes -1 and must be caught
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"
        with pytest.raises(ReproError):
            read_matrix_market(io.StringIO(text))


class TestShapeMismatchEverywhere:
    def test_masked_spgemm_inner_dims(self, rng):
        A = csr_random(4, 5, density=0.5, rng=rng)
        B = csr_random(6, 7, density=0.5, rng=rng)
        with pytest.raises(ShapeError):
            masked_spgemm(A, B, None)

    def test_mask_wrong_shape(self, rng):
        from repro.errors import MaskError

        A = csr_random(4, 5, density=0.5, rng=rng)
        B = csr_random(5, 7, density=0.5, rng=rng)
        M = csr_random(4, 6, density=0.5, rng=rng)
        with pytest.raises(MaskError):
            masked_spgemm(A, B, Mask.from_matrix(M))

    def test_stitch_rejects_partial_coverage(self):
        from repro.core.types import RowBlock, stitch_blocks

        block = RowBlock(np.array([1], dtype=np.int64),
                         np.array([0], dtype=np.int64), np.array([1.0]))
        with pytest.raises(ValueError):
            stitch_blocks([block], nrows=2, ncols=3)


class TestDegenerateScales:
    """Zero-dimensional and single-element shapes through the whole stack."""

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1)])
    def test_empty_shapes_all_algorithms(self, shape):
        m, n = shape
        k = 3
        A = CSRMatrix.empty((m, k))
        B = CSRMatrix.empty((k, n))
        M = CSRMatrix.empty((m, n))
        for alg in ("msa", "hash", "mca", "heap", "inner", "saxpy"):
            C = masked_spgemm(A, B, Mask.from_matrix(M), algorithm=alg)
            assert C.shape == (m, n)
            assert C.nnz == 0

    def test_single_entry_everything(self):
        A = CSRMatrix([0, 1], [0], [2.0], (1, 1))
        M = CSRMatrix([0, 1], [0], [1.0], (1, 1))
        for alg in ("msa", "hash", "mca", "heap", "heapdot", "inner"):
            C = masked_spgemm(A, A, Mask.from_matrix(M), algorithm=alg)
            assert C.nnz == 1 and C.data[0] == 4.0

    def test_mask_larger_than_any_product(self, rng):
        # every mask entry misses: output must be empty, not error
        A = CSRMatrix.empty((3, 4))
        B = csr_random(4, 5, density=0.5, rng=rng)
        M = csr_random(3, 5, density=1.0, rng=rng)
        for alg in ("msa", "hash", "mca", "heap", "inner"):
            assert masked_spgemm(A, B, Mask.from_matrix(M),
                                 algorithm=alg).nnz == 0
