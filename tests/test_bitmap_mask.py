"""The bitmap form of :class:`~repro.mask.Mask`.

A bitmap mask must give, bit for bit, the product its CSR equivalent gives:
through every registry key, the reference tier and the baselines, for
plain and complemented masks, one and two phases, serial and threaded, with
the compiled tier on and off. Only the compiled complemented MSA loop
reads the bitmap itself; everything else reads the CSR view the mask
derives from it on first use, as does any other CSR reader (the service
store, the tracer).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from conftest import assert_bit_identical, make_triple, needs_native
from repro.core import build_plan, masked_spgemm
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import auto_select, available_algorithms, get_spec
from repro.errors import MaskError
from repro.mask import Mask
from repro.native import kernels as native_kernels
from repro.parallel.executor import ThreadExecutor
from repro.semiring import MIN_PLUS, OR_AND, PLUS_FIRST, PLUS_TIMES
from repro.sparse import CSRMatrix, csr_from_dense

#: every kernel key the registry resolves: the listed algorithms, the
#: routing tiers and hash-native, the unlisted alias of fused hash
KERNEL_KEYS = available_algorithms() + ["msa-loop", "msa-native",
                                        "hash-native"]
BASELINES = ["saxpy", "saxpy-scipy", "dot"]


def bitmap_of(M: CSRMatrix) -> np.ndarray:
    bm = np.zeros(M.shape, dtype=bool)
    bm[np.repeat(np.arange(M.nrows), M.row_nnz()), M.indices] = True
    return bm


def mask_pair(M, complemented):
    return (Mask.from_matrix(M, complemented=complemented),
            Mask.from_bitmap(bitmap_of(M), complemented=complemented))


@pytest.fixture
def operands(rng):
    A, B, M = make_triple(rng, m=40, k=30, n=50, values="uniform")
    # an empty mask row (all clear) and a full one (all banned or allowed)
    dense = M.to_dense() != 0
    dense[3] = False
    dense[7] = True
    return A, B, csr_from_dense(dense.astype(float))


# --------------------------------------------------------------------- #
# the form itself
# --------------------------------------------------------------------- #
def test_from_bitmap_converts_to_the_equal_csr_mask(rng):
    _, _, M = make_triple(rng, m=9, n=13)
    csr, bm = mask_pair(M, True)
    assert bm.shape == csr.shape and bm.complemented
    assert bm.nnz == csr.nnz
    assert np.array_equal(bm.row_nnz(), csr.row_nnz())
    rows = np.array([4, 0, 8])
    assert np.array_equal(bm.row_nnz(rows), csr.row_nnz(rows))
    back = bm.to_csr()
    assert back.bitmap is None and back.complemented
    assert back.indices.dtype == np.int64 and back.indptr.dtype == np.int64
    assert np.array_equal(back.indptr, csr.indptr)
    assert np.array_equal(back.indices, csr.indices)
    assert csr.to_csr() is csr


def test_bitmap_answers_every_csr_read(rng):
    """A bitmap mask's CSR view is built once, on first read, and equals
    the CSR mask's arrays."""
    _, _, M = make_triple(rng, m=9, n=13)
    csr, bm = mask_pair(M, False)
    assert np.array_equal(bm.indptr, csr.indptr)
    assert bm.indptr is bm.indptr and bm.indices is bm.indices
    assert np.array_equal(bm.indices, csr.indices)
    for i in range(M.nrows):
        assert np.array_equal(bm.row(i), csr.row(i))
    assert_bit_identical(bm.to_matrix(), csr.to_matrix())
    assert bm.bitmap is not None  # still a bitmap mask
    assert bm.nbytes == csr.nbytes + bm.bitmap.nbytes
    with pytest.raises(AttributeError):
        bm.indptr = csr.indptr


def test_from_bitmap_zero_width():
    bm = Mask.from_bitmap(np.zeros((4, 0), dtype=bool))
    csr = bm.to_csr()
    assert csr.shape == (4, 0) and csr.nnz == 0
    assert np.array_equal(csr.indptr, np.zeros(5))


@pytest.mark.parametrize("bad, match", [
    (np.zeros((3, 4), dtype=np.uint8), "bool"),
    ([[True, False]], "bool"),
    (np.zeros(5, dtype=bool), "2-D"),
    (np.zeros((2, 3, 4), dtype=bool), "2-D"),
    (np.zeros((4, 6), dtype=bool)[:, ::2], "C-contiguous"),
    (np.zeros((4, 3), dtype=bool, order="F"), "C-contiguous"),
])
def test_from_bitmap_rejects(bad, match):
    with pytest.raises(MaskError, match=match):
        Mask.from_bitmap(bad)


def test_from_bitmap_rejects_shape_mismatch():
    bm = np.zeros((3, 4), dtype=bool)
    assert Mask.from_bitmap(bm, (3, 4)).shape == (3, 4)
    with pytest.raises(MaskError, match="shape"):
        Mask.from_bitmap(bm, (4, 3))
    A = CSRMatrix.empty((4, 2))
    B = CSRMatrix.empty((2, 4))
    with pytest.raises(MaskError, match="shape"):
        masked_spgemm(A, B, Mask.from_bitmap(bm))


# --------------------------------------------------------------------- #
# bit-identity with the CSR mask
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["auto", "off"])
@pytest.mark.parametrize("threads", [False, True], ids=["serial", "thread"])
@pytest.mark.parametrize("phases", [1, 2])
@pytest.mark.parametrize("complemented", [False, True],
                         ids=["plain", "compl"])
@pytest.mark.parametrize("key", ["auto"] + KERNEL_KEYS)
def test_bitmap_matches_csr_through_every_key(native_mode, operands, mode,
                                               threads, phases,
                                               complemented, key):
    if (complemented and key != "auto"
            and not get_spec(key).supports_complement):
        pytest.skip("kernel has no complemented form")
    native_mode(mode)
    A, B, M = operands
    csr, bm = mask_pair(M, complemented)
    kw = dict(algorithm=key, semiring=PLUS_TIMES, phases=phases)
    if threads:
        with ThreadExecutor(2) as ex:
            want = masked_spgemm(A, B, csr, executor=ex, **kw)
            got = masked_spgemm(A, B, bm, executor=ex, **kw)
    else:
        want = masked_spgemm(A, B, csr, **kw)
        got = masked_spgemm(A, B, bm, **kw)
    assert_bit_identical(got, want, f"{key} {phases}P")
    plan = build_plan(A, B, bm, algorithm=key, phases=phases,
                      semiring=PLUS_TIMES)
    assert plan.algorithm == build_plan(A, B, csr, algorithm=key,
                                        phases=phases,
                                        semiring=PLUS_TIMES).algorithm
    assert_bit_identical(masked_spgemm(A, B, bm, plan=plan, **kw), want,
                         f"{key} {phases}P planned")


@pytest.mark.parametrize("complemented", [False, True],
                         ids=["plain", "compl"])
@pytest.mark.parametrize("key", ["msa", "hash", "heap"])
def test_bitmap_matches_csr_on_the_reference_tier(operands, complemented,
                                                  key):
    A, B, M = operands
    csr, bm = mask_pair(M, complemented)
    want = reference_masked_spgemm(A, B, csr, key, PLUS_TIMES)
    got = masked_spgemm(A, B, bm, algorithm=key, tier="reference")
    assert_bit_identical(got, want)


@pytest.mark.parametrize("complemented", [False, True],
                         ids=["plain", "compl"])
@pytest.mark.parametrize("key", BASELINES)
def test_bitmap_matches_csr_through_the_baselines(operands, complemented,
                                                  key):
    A, B, M = operands
    csr, bm = mask_pair(M, complemented)
    if complemented and key == "dot":  # pull-based, like inner
        for mask in (csr, bm):
            with pytest.raises(MaskError):
                masked_spgemm(A, B, mask, algorithm=key)
        return
    assert_bit_identical(masked_spgemm(A, B, bm, algorithm=key),
                         masked_spgemm(A, B, csr, algorithm=key))


@pytest.mark.parametrize("semiring", [PLUS_FIRST, MIN_PLUS, OR_AND],
                         ids=lambda s: s.name)
def test_complemented_bitmap_matches_the_reference(operands, semiring):
    A, B, M = operands
    csr, bm = mask_pair(M, True)
    want = reference_masked_spgemm(A, B, csr, "msa", semiring)
    for key in ("auto", "msa-native", "msa"):
        got = masked_spgemm(A, B, bm, algorithm=key, semiring=semiring)
        assert_bit_identical(got, want, key)


def _no_csr_view(self):
    raise AssertionError("the bitmap's CSR view was built")


@needs_native
@pytest.mark.parametrize("key", ["auto", "msa-native"])
def test_serial_one_phase_msa_native_reads_the_bitmap_in_place(operands,
                                                                 key):
    """The path BC takes: nothing reads the CSR view, and the compiled loop
    (not the fused kernel) serves the product."""
    from repro.core import msa_kernel

    A, B, M = operands
    csr, bm = mask_pair(M, True)
    want = masked_spgemm(A, B, csr, algorithm="msa-native",
                         semiring=PLUS_FIRST)
    with mock.patch.object(Mask, "indptr", property(_no_csr_view)), \
            mock.patch.object(Mask, "indices", property(_no_csr_view)), \
            mock.patch.object(msa_kernel, "numeric_rows",
                              side_effect=AssertionError("delegated")):
        got = masked_spgemm(A, B, bm, algorithm=key, semiring=PLUS_FIRST)
    assert_bit_identical(got, want)


@needs_native
def test_bitmap_faces_direct_write_and_row_subsets(operands):
    """Both compiled MSA faces take a complemented bitmap over a row subset
    in chunk order, including all-banned and empty mask rows."""
    from repro.core import msa_kernel

    A, B, M = operands
    csr, bm = mask_pair(M, True)
    rows = np.array([7, 3, 0, 5, 11, 39], dtype=np.int64)
    want = msa_kernel.numeric_rows(A, B, csr, PLUS_TIMES, rows)
    got = native_kernels.msa_numeric_rows(A, B, bm, PLUS_TIMES, rows)
    assert np.array_equal(got.sizes, want.sizes)
    assert np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)
    assert want.sizes[0] == 0  # row 7 is banned everywhere
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(want.sizes, out=offsets[1:])
    cols = np.empty(int(offsets[-1]), dtype=np.int64)
    vals = np.empty(int(offsets[-1]), dtype=np.float64)
    native_kernels.msa_numeric_rows_into(A, B, bm, PLUS_TIMES, rows, cols,
                                         vals, offsets)
    assert np.array_equal(cols, want.cols)
    assert np.array_equal(vals, want.vals)


# --------------------------------------------------------------------- #
# routing and errors
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["auto", "off"])
@pytest.mark.parametrize("complemented", [False, True],
                         ids=["plain", "compl"])
def test_auto_select_on_a_bitmap(native_mode, operands, mode, complemented):
    native_mode(mode)
    A, B, M = operands
    csr, bm = mask_pair(M, complemented)
    assert native_kernels.eligible(A, B, bm, PLUS_TIMES) == \
        native_kernels.eligible(A, B, csr, PLUS_TIMES)
    assert auto_select(A, B, bm) == auto_select(A, B, csr)
    with mock.patch("repro.native.kernels.eligible", return_value=False):
        assert auto_select(A, B, bm) == auto_select(A, B, csr)


def test_engine_complements_a_bitmap_mask(operands):
    """``Engine.multiply(..., complemented=True)`` flips a bitmap mask's
    polarity like a CSR mask's."""
    from repro.service import Engine

    A, B, M = operands
    csr, bm = mask_pair(M, False)
    flipped = bm.complement()
    assert flipped.complemented and flipped.bitmap is not bm.bitmap
    assert np.array_equal(flipped.bitmap, bm.bitmap)
    want = masked_spgemm(A, B, csr.complement())
    with Engine(tracing=False) as engine:
        got = engine.multiply(A, B, bm, complemented=True).result
    assert_bit_identical(got, want)


def test_store_registers_a_bitmap_mask(operands):
    """The service store accounts and fingerprints a bitmap mask like its
    CSR equivalent, and requests against it are served."""
    from repro.service import Engine, Request

    A, B, M = operands
    csr, bm = mask_pair(M, False)
    with Engine(tracing=False) as engine:
        engine.register("A", A)
        engine.register("B", B)
        engine.register("M", bm)
        engine.register("Mc", csr)
        entry = engine.entry("M")
        assert entry.nbytes == bm.nbytes > csr.nbytes
        assert entry.fingerprint == engine.entry("Mc").fingerprint
        for complemented in (False, True):
            want = masked_spgemm(A, B, csr.complement() if complemented
                                 else csr)
            got = engine.submit(Request(a="A", b="B", mask="M",
                                        complemented=complemented)).result
            assert_bit_identical(got, want, f"complemented={complemented}")


def test_mca_raises_on_a_complemented_bitmap(operands):
    A, B, M = operands
    _, bm = mask_pair(M, True)
    with pytest.raises(MaskError):
        masked_spgemm(A, B, bm, algorithm="mca")
