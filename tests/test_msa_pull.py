"""The compiled pull key ``msa-pull`` against the reference tier.

``msa-pull`` computes ``mask ⊙ (A·B)`` one output row at a time by
folding, for every candidate column j, row j of Bᵀ against A's row — the
products the push loops fold into column j, in the same order — so its
output must equal the pure-Python reference (``core/reference.py``,
``msa``) bit for bit:

* across the compiled op table (every standard semiring and the
  off-table min/times pairing), one- and two-phase, serial and on a
  :class:`~repro.parallel.executor.ThreadExecutor`;
* for each mask form it reads itself (a plain CSR mask, a plain bitmap
  through its CSR view, a complemented bitmap in place) and the one it
  delegates (a complemented CSR mask goes to the push);
* with a non-symmetric B, whose transpose the memo builds, and with
  ``REPRO_NATIVE=off``, where every call delegates to the fused push;
* on the loop's edges: empty A and mask rows, rows with no candidate,
  widths that are not a multiple of eight, signed zeros, infinities and
  NaNs, and one thread's scratch reused at growing and shrinking widths
  and after a stale plan.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from conftest import assert_bit_identical, make_triple, needs_native
from repro.core import masked_spgemm, msa_kernel
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import (NATIVE_BASE, available_algorithms,
                                 get_spec)
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.native import kernels as native_kernels
from repro.parallel.executor import ThreadExecutor
from repro.perfmodel.traffic import pull_candidates, total_traffic
from repro.semiring import (MAX_TIMES, MIN_PLUS, PLUS_FIRST, PLUS_TIMES,
                            Semiring)
from repro.semiring.standard import _REGISTRY as SEMIRINGS
from repro.service.engine import kernel_tier
from repro.sparse import CSRMatrix

MIN_TIMES = Semiring(MIN_PLUS.add, PLUS_TIMES.mul, "min_times",
                     mul_scalar=lambda a, b: a * b)
OP_TABLE = {**SEMIRINGS, "min_times": MIN_TIMES}


def _bitmap(M: CSRMatrix) -> np.ndarray:
    """The stored pattern of ``M`` as a C-contiguous bool array."""
    bits = np.zeros(M.shape, dtype=bool)
    bits[np.repeat(np.arange(M.nrows), M.row_nnz()), M.indices] = True
    return bits


def _masks(M: CSRMatrix) -> dict[str, Mask]:
    return {"plain-csr": Mask.from_matrix(M),
            "plain-bitmap": Mask.from_bitmap(_bitmap(M)),
            "compl-bitmap": Mask.from_bitmap(_bitmap(M), complemented=True),
            "compl-csr": Mask.from_matrix(M, complemented=True)}


def _csr(rows: list[dict], ncols: int) -> CSRMatrix:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    cols, vals = [], []
    for i, r in enumerate(rows):
        keys = sorted(r)
        indptr[i + 1] = indptr[i] + len(keys)
        cols += keys
        vals += [r[k] for k in keys]
    return CSRMatrix(indptr, np.array(cols, dtype=np.int64),
                     np.array(vals, dtype=np.float64), (len(rows), ncols))


# --------------------------------------------------------------------- #
# the registry key
# --------------------------------------------------------------------- #
def test_pull_key_is_an_unlisted_native_tier_of_msa():
    spec = get_spec("msa-pull")
    assert spec.family == "pull" and spec.supports_complement
    assert "msa-pull" not in available_algorithms()
    assert NATIVE_BASE["msa-pull"] == "msa"
    assert kernel_tier("msa-pull") == "native"
    assert spec.symbolic.__name__ == "msa_symbolic_rows"  # msa-native's


# --------------------------------------------------------------------- #
# bit-identity against the reference tier
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["auto", "off"])
@pytest.mark.parametrize("semiring", sorted(OP_TABLE))
@pytest.mark.parametrize("form", ["plain-csr", "plain-bitmap",
                                  "compl-bitmap", "compl-csr"])
def test_pull_matches_reference(native_mode, rng, mode, semiring, form):
    """Non-symmetric B (a transpose the memo builds), every op pair, one-
    and two-phase, serial and threaded, native on and off."""
    native_mode(mode)
    A, B, M = make_triple(rng, m=40, k=33, n=45, values="uniform")
    mask = _masks(M)[form]
    sr = OP_TABLE[semiring]
    want = reference_masked_spgemm(A, B, mask, "msa", sr)
    for phases in (1, 2):
        got = masked_spgemm(A, B, mask, algorithm="msa-pull", semiring=sr,
                            phases=phases)
        assert_bit_identical(got, want, f"{form}/{semiring}/{phases}P")
        with ThreadExecutor(2) as ex:
            got = masked_spgemm(A, B, mask, algorithm="msa-pull",
                                semiring=sr, phases=phases, executor=ex)
        assert_bit_identical(got, want, f"{form}/{semiring}/{phases}P/thr")


@needs_native
@pytest.mark.parametrize("semiring", [PLUS_FIRST, PLUS_TIMES, MIN_PLUS,
                                      MAX_TIMES])
def test_pull_signed_zeros_infinities_and_nans(semiring):
    """The branch-free plus_first fold adds +0.0 for every absent entry:
    the sum stays bit-identical to the push, which never adds them; the
    other op pairs fold only present entries, NaN and ±0.0 included."""
    nan, inf = float("nan"), float("inf")
    A = _csr([{0: -0.0, 2: 1.0}, {0: nan, 1: -0.0}, {1: inf, 2: -inf},
              {0: 0.0, 1: nan, 2: -0.0}, {}], 3)
    B = _csr([{0: -0.0, 1: nan, 2: 0.0, 4: 1.0},
              {0: 0.0, 1: -0.0, 2: nan, 3: inf},
              {0: -1.0, 2: 2.0, 3: -0.0, 4: -inf}], 5)
    M = _csr([{0: 1, 2: 1, 4: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 3: 1, 4: 1},
              {1: 1, 2: 1}, {0: 1}], 5)
    with np.errstate(all="ignore"):
        for form, mask in _masks(M).items():
            want = masked_spgemm(A, B, mask, algorithm="msa-native",
                                 semiring=semiring)
            got = masked_spgemm(A, B, mask, algorithm="msa-pull",
                                semiring=semiring)
            # NaN != NaN, so compare the value bits
            assert got.same_pattern(want), f"{form}/{semiring.name}"
            assert np.array_equal(got.data.view(np.uint64),
                                  want.data.view(np.uint64)), \
                f"{form}/{semiring.name}"


@needs_native
@pytest.mark.parametrize("ncols", [1, 7, 8, 9, 64, 131])
def test_pull_bitmap_scan_edges(rng, ncols):
    """The eight-byte scan with its tail: an empty A row, a row banned
    everywhere (no candidate), a row with nothing banned, and a row whose
    candidates sit on a word's first and last bytes."""
    m, k = 6, 5
    A = _csr([{}, {0: 1.0, 3: 2.0}, {1: -1.0}, {2: 0.5, 4: 1.5},
              {0: 2.0, 1: 1.0, 4: -3.0}, {3: 1.0}], k)
    B = _dense_csr(rng.random((k, ncols)) < 0.6, rng)
    bits = rng.random((m, ncols)) < 0.5
    bits[1] = True        # no candidate
    bits[2] = False       # nothing banned
    bits[3] = True
    bits[3, [0, ncols - 1]] = False
    mask = Mask.from_bitmap(bits, complemented=True)
    want = reference_masked_spgemm(A, B, mask, "msa", PLUS_FIRST)
    for rows in (np.arange(m), np.array([1, 3, 5]), np.array([], int)):
        rows = rows.astype(np.int64)
        got = native_kernels.msa_pull_numeric_rows(A, B, mask, PLUS_FIRST,
                                                   rows)
        ref = msa_kernel.numeric_rows(A, B, mask, PLUS_FIRST, rows)
        assert np.array_equal(got.sizes, ref.sizes)
        assert np.array_equal(got.cols, ref.cols)
        assert np.array_equal(got.vals, ref.vals)
    got = masked_spgemm(A, B, mask, algorithm="msa-pull", semiring=PLUS_FIRST)
    assert_bit_identical(got, want, f"ncols={ncols}")


def _dense_csr(pattern: np.ndarray, rng) -> CSRMatrix:
    vals = rng.standard_normal(pattern.shape)
    m, n = pattern.shape
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(pattern.sum(axis=1), out=indptr[1:])
    rows, cols = np.nonzero(pattern)
    return CSRMatrix(indptr, cols.astype(np.int64), vals[rows, cols], (m, n))


@needs_native
def test_pull_scratch_reuse_and_stale_plan(rng):
    """One thread's scratch, reused at growing then shrinking inner widths
    (the pull's scratch is as wide as A), and after a direct write that
    rejects stale offsets: every call still equals the reference."""
    cases = []
    for k in (5, 300, 40, 3000, 17):
        A, B, M = make_triple(rng, m=25, k=k, n=70, da=0.15, db=0.1,
                              values="uniform")
        cases.append((A, B, M))
    for A, B, M in cases + cases[::-1]:
        for form in ("plain-csr", "compl-bitmap"):
            mask = _masks(M)[form]
            want = reference_masked_spgemm(A, B, mask, "msa", PLUS_TIMES)
            got = masked_spgemm(A, B, mask, algorithm="msa-pull")
            assert_bit_identical(got, want, f"k={A.ncols}/{form}")

    A, B, M = cases[1]
    mask = _masks(M)["compl-bitmap"]
    rows = np.arange(A.nrows, dtype=np.int64)
    sizes = msa_kernel.symbolic_rows(A, B, mask, rows)
    big = int(np.argmax(sizes))
    sizes[big] -= 1                        # a stale plan: one row too small
    sizes[(big + 1) % sizes.size] += 1
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    cols = np.empty(int(offsets[-1]), dtype=np.int64)
    vals = np.empty(int(offsets[-1]))
    with pytest.raises(AlgorithmError, match="msa-pull"):
        native_kernels.msa_pull_numeric_rows_into(
            A, B, mask, PLUS_TIMES, rows, cols, vals, offsets)
    assert not native_kernels._scratch(1).states.any()
    want = reference_masked_spgemm(A, B, mask, "msa", PLUS_TIMES)
    assert_bit_identical(masked_spgemm(A, B, mask, algorithm="msa-pull"),
                         want, "after a stale plan")


# --------------------------------------------------------------------- #
# the transpose memo
# --------------------------------------------------------------------- #
def test_transpose_memo_reads_a_remembered_transpose(rng, monkeypatch):
    """A remembered transpose is read, not rebuilt; one the memo builds is
    kept as long as B lives; an entry goes with its matrix."""
    import repro.sparse.ops as ops

    A, B, M = make_triple(rng, m=20, k=15, n=25)
    BT = ops.transpose_csr(B)
    native_kernels.remember_transpose(B, BT)
    assert native_kernels.transpose_of(B) is BT
    built = native_kernels.transpose_of(A)      # not remembered: built once
    assert built.same_pattern(ops.transpose_csr(A))
    assert native_kernels.transpose_of(A) is built

    def no_transpose(m):
        raise AssertionError("transposed again")

    monkeypatch.setattr(ops, "transpose_csr", no_transpose)
    mask = Mask.from_matrix(M)
    got = masked_spgemm(A, B, mask, algorithm="msa-pull")
    assert_bit_identical(got, reference_masked_spgemm(A, B, mask, "msa",
                                                      PLUS_TIMES))
    key = id(B)
    del B, BT
    gc.collect()
    assert key not in native_kernels._TRANSPOSES


def test_symmetric_matrix_is_its_own_remembered_transpose(rng):
    S = make_triple(rng, m=12, k=12, n=12)[0]
    native_kernels.remember_transpose(S, S)
    assert native_kernels.transpose_of(S) is S
    key = id(S)
    del S
    gc.collect()
    assert key not in native_kernels._TRANSPOSES


# --------------------------------------------------------------------- #
# traffic model (traced runs count every kernel call's bytes)
# --------------------------------------------------------------------- #
def test_pull_traffic_counts_candidates(rng):
    A, B, M = make_triple(rng, m=20, k=15, n=25)
    plain, compl = Mask.from_matrix(M), Mask.from_matrix(M, complemented=True)
    assert pull_candidates(plain) == M.nnz == pull_candidates(M)
    assert pull_candidates(compl) == 20 * 25 - M.nnz
    for mask in (plain, compl, M):
        words = total_traffic("msa-pull", A, B, mask).words
        assert words == A.nnz + pull_candidates(mask) * (1 + B.nnz / 25)


def test_transpose_memo_under_concurrent_threads(rng):
    """More threads than cores pull products whose B the memo has never
    seen, each B shared by several threads, with a short switch interval:
    every product equals the reference, and every entry goes with its
    matrix."""
    import sys
    import threading

    triples = [make_triple(rng, m=12, k=10, n=14) for _ in range(6)]
    wants = [reference_masked_spgemm(A, B, Mask.from_matrix(M), "msa",
                                     PLUS_TIMES) for A, B, M in triples]
    keys = {id(B) for _, B, _ in triples}
    errors = []

    def work(t):
        try:
            for r in range(20):
                i = (t + r) % len(triples)
                A, B, M = triples[i]
                got = masked_spgemm(A, B, Mask.from_matrix(M),
                                    algorithm="msa-pull")
                assert_bit_identical(got, wants[i], f"thread {t} round {r}")
        except AssertionError as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors[0]
    del triples, th, threads
    gc.collect()
    assert not keys & set(native_kernels._TRANSPOSES)
