"""Compiled (native) kernel tier tests — the PR-9 contracts.

* **bit-identity**: ``msa-native`` / ``hash-native`` produce byte-for-byte
  the CSR triplets of their fused bases and the pure-Python reference,
  across every registered semiring, both mask polarities, both phase
  modes, empty rows, and the int32/int64 column-id boundary (hypothesis
  sweeps the shape/density space);
* **graceful absence**: with ``REPRO_NATIVE=off`` (or no backend at all)
  the probe reports unavailable, routing keeps the fused keys, and the
  native entry points still answer — by delegating — so nothing anywhere
  needs a guard. These tests never skip;
* **degrade ladder**: a chaos fault on ``engine.kernel`` drops a
  native-routed request to its fused base (then the loop rung) with
  bit-identical output, counted in ``repro_degraded_total`` and visible
  as ``RequestStats.kernel_tier``;
* **threads over the compiled kernels**: the native variant on a
  :class:`~repro.parallel.executor.ThreadExecutor` is bit-identical to the
  serial fused path, cold and on plan replay.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_bit_identical, fused_table_pick, make_triple,
                      needs_native)
from repro import native
from repro.core import masked_spgemm
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import (NATIVE_BASE, auto_select,
                                 available_algorithms, get_spec,
                                 native_variant)
from repro.mask import Mask
from repro.native import native_available, native_backend_name
from repro.parallel.executor import ThreadExecutor
from repro.parallel.runner import parallel_masked_spgemm
from repro.resilience import FaultPlan
from repro.semiring import PLUS_PAIR, PLUS_TIMES, Monoid, Semiring
from repro.semiring.standard import _REGISTRY as SEMIRINGS
from repro.service import Engine, Request
from repro.sparse import CSRMatrix, csr_random

NATIVE_KEYS = ["msa-native", "hash-native"]


def _families(engine):
    from repro.obs import parse_exposition

    return parse_exposition(engine.metrics.render())


# --------------------------------------------------------------------- #
# bit-identity against fused and reference
# --------------------------------------------------------------------- #
@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("alg", NATIVE_KEYS)
    @pytest.mark.parametrize("semiring", list(SEMIRINGS))
    @pytest.mark.parametrize("complemented", [False, True])
    def test_matches_fused_all_semirings(self, rng, alg, semiring,
                                         complemented):
        A, B, M = make_triple(rng, m=60, k=50, n=55)
        mask = Mask.from_matrix(M, complemented=complemented)
        sr = SEMIRINGS[semiring]
        for phases in (1, 2):
            got = masked_spgemm(A, B, mask, algorithm=alg, semiring=sr,
                                phases=phases)
            want = masked_spgemm(A, B, mask, algorithm=NATIVE_BASE[alg],
                                 semiring=sr, phases=phases)
            assert_bit_identical(got, want,
                                 f"{alg}/{semiring}/compl={complemented}/"
                                 f"{phases}P")

    @pytest.mark.parametrize("alg", NATIVE_KEYS)
    def test_matches_reference(self, rng, alg):
        A, B, M = make_triple(rng, m=40, k=30, n=45)
        mask = Mask.from_matrix(M)
        got = masked_spgemm(A, B, mask, algorithm=alg, semiring=PLUS_TIMES,
                            phases=2)
        want = reference_masked_spgemm(A, B, mask, algorithm="msa",
                                       semiring=PLUS_TIMES)
        assert_bit_identical(got, want, f"{alg} vs reference")

    @pytest.mark.parametrize("alg", NATIVE_KEYS)
    def test_empty_rows_and_empty_mask_rows(self, rng, alg):
        # rows of A with no entries, rows of the mask with no entries, and
        # a fully-empty B stripe must all round-trip identically
        A = csr_random(24, 20, density=0.15, rng=rng)
        A = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data.copy(),
                      A.shape)
        B = csr_random(20, 26, density=0.15, rng=rng)
        M = csr_random(24, 26, density=0.12, rng=rng)
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            got = masked_spgemm(A, B, mask, algorithm=alg, phases=2)
            want = masked_spgemm(A, B, mask, algorithm=NATIVE_BASE[alg],
                                 phases=2)
            assert_bit_identical(got, want, f"{alg}/compl={complemented}")

    @given(m=st.integers(2, 40), k=st.integers(2, 40), n=st.integers(2, 40),
           da=st.floats(0.0, 0.4), dm=st.floats(0.0, 0.5),
           semiring=st.sampled_from(["plus_times", "plus_pair", "min_plus",
                                     "max_times", "or_and"]),
           complemented=st.booleans(), phases=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("alg", NATIVE_KEYS)
    def test_hypothesis_sweep(self, alg, m, k, n, da, dm, semiring,
                              complemented, phases, seed):
        r = np.random.default_rng(seed)
        A = csr_random(m, k, density=da, rng=r, values="randint")
        B = csr_random(k, n, density=da, rng=r, values="randint")
        mask = Mask.from_matrix(csr_random(m, n, density=dm, rng=r),
                                complemented=complemented)
        sr = SEMIRINGS[semiring]
        got = masked_spgemm(A, B, mask, algorithm=alg, semiring=sr,
                            phases=phases)
        want = masked_spgemm(A, B, mask, algorithm=NATIVE_BASE[alg],
                             semiring=sr, phases=phases)
        assert_bit_identical(
            got, want, f"{alg}/{semiring}/compl={complemented}/{phases}P")

    def test_hash_native_wide_column_ids(self, rng):
        """Column ids past 2**31 must hash and compare as int64 — an int32
        truncation anywhere in the table would collide or mis-sort them."""
        wide = 2**31 + 64
        k = 6
        indptr = np.arange(k + 1, dtype=np.int64) * 3
        cols = np.array([7, 2**31 - 1, 2**31 + 5] * k, dtype=np.int64)
        vals = rng.random(cols.size)
        B = CSRMatrix(indptr, cols, vals, (k, wide))
        A = csr_random(8, k, density=0.6, rng=rng, values="randint")
        m_indptr = np.arange(9, dtype=np.int64) * 2
        m_cols = np.array([2**31 - 1, 2**31 + 5] * 8, dtype=np.int64)
        M = CSRMatrix(m_indptr, m_cols, np.ones(m_cols.size), (8, wide))
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            got = masked_spgemm(A, B, mask, algorithm="hash-native",
                                phases=2)
            want = masked_spgemm(A, B, mask, algorithm="hash", phases=2)
            assert_bit_identical(got, want, f"wide/compl={complemented}")

    def test_msa_native_delegates_past_ncols_cap(self, rng):
        """msa's dense scratch cannot scale to huge column counts; past
        MSA_NCOLS_CAP the native face must hand the rows to fused msa
        (which chunks its scratch) and stay bit-identical."""
        from repro.native.kernels import MSA_NCOLS_CAP

        wide = MSA_NCOLS_CAP + 3
        k = 4
        indptr = np.arange(k + 1, dtype=np.int64) * 2
        cols = np.array([3, wide - 2] * k, dtype=np.int64)
        B = CSRMatrix(indptr, cols, rng.random(cols.size), (k, wide))
        A = csr_random(6, k, density=0.7, rng=rng, values="randint")
        m_indptr = np.arange(7, dtype=np.int64) * 2
        m_cols = np.array([3, wide - 2] * 6, dtype=np.int64)
        M = CSRMatrix(m_indptr, m_cols, np.ones(m_cols.size), (6, wide))
        mask = Mask.from_matrix(M)
        got = masked_spgemm(A, B, mask, algorithm="msa-native", phases=2)
        want = masked_spgemm(A, B, mask, algorithm="msa", phases=2)
        assert_bit_identical(got, want, "msa ncols cap delegation")


# --------------------------------------------------------------------- #
# routing + registry surface
# --------------------------------------------------------------------- #
@needs_native
def test_auto_select_routes_to_native(rng):
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    mask = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    assert auto_select(A, A, mask).endswith("-native")
    assert native_variant("msa") == "msa-native"
    assert native_variant("hash") == "hash-native"
    assert native_variant("msa-loop") == "msa-native"
    assert native_variant("esc") == "esc"  # unmapped kernels pass through


#: (regime the fused table picks for the plain mask, m, k, n, input
#: degree, mask degree) — one cell per kernel native-first auto replaced
_ROUTING_GRID = [
    ("esc", 96, 96, 96, 4, 4),          # short rows
    ("heap", 64, 64, 64, 2, 24),        # inputs ≪ mask
    ("inner", 64, 64, 64, 16, 2),       # mask ≪ inputs
    ("msa-loop", 128, 128, 128, 32, 32),  # long rows, mask reuse
]
_ROUTING_SEMIRINGS = ["plus_times", "plus_pair", "plus_first", "min_plus"]


@needs_native
@pytest.mark.parametrize("regime,m,k,n,deg,mdeg", _ROUTING_GRID)
def test_native_first_auto_matches_reference(rng, regime, m, k, n, deg,
                                             mdeg):
    """Differential check of native-first routing: in every regime the
    fused table used to send to esc/heap/inner/msa-loop, ``auto`` now runs
    msa-native and stays bit-identical to the pure-Python reference —
    plain and complemented masks, four semirings, one- and two-phase, and
    a warm-plan replay through the engine."""
    A = csr_random(m, k, density=deg / k, rng=rng, values="uniform")
    B = csr_random(k, n, density=deg / n, rng=rng, values="uniform")
    M = csr_random(m, n, density=mdeg / n, rng=rng)
    assert fused_table_pick(A, B, Mask.from_matrix(M)) == regime
    eng = Engine()
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            assert auto_select(A, B, mask) == "msa-native"
            for name in _ROUTING_SEMIRINGS:
                semiring = SEMIRINGS[name]
                want = reference_masked_spgemm(A, B, mask, algorithm="msa",
                                               semiring=semiring)
                where = f"{regime} compl={complemented} {name}"
                for phases in (1, 2):
                    got = masked_spgemm(A, B, mask, algorithm="auto",
                                        semiring=semiring, phases=phases)
                    assert_bit_identical(got, want, f"{where} {phases}P")
                req = Request(a="A", b="B", mask="M", algorithm="auto",
                              phases=2, semiring=name,
                              complemented=complemented)
                cold, warm = eng.submit(req), eng.submit(req)
                assert not cold.stats.plan_cache_hit
                assert warm.stats.plan_cache_hit
                assert warm.stats.algorithm == "msa-native"
                assert_bit_identical(warm.result, want, f"{where} engine")
    finally:
        eng.close()


def test_native_tiers_not_publicly_listed():
    for key in NATIVE_KEYS:
        assert get_spec(key) is not None  # resolvable by name
        assert key not in available_algorithms()


@needs_native
def test_unregistered_semiring_delegates(rng):
    """op-code mapping only covers the standard semirings; a custom one
    must silently take the fused path with identical output."""
    add = Monoid(np.add, 0.0, "custom_add")
    custom = Semiring(add, lambda a, b: a * b, "custom_times",
                      mul_scalar=lambda a, b: a * b)
    A, B, M = make_triple(rng, m=25, k=20, n=25)
    mask = Mask.from_matrix(M)
    got = masked_spgemm(A, B, mask, algorithm="msa-native",
                        semiring=custom, phases=2)
    want = masked_spgemm(A, B, mask, algorithm="msa", semiring=custom,
                         phases=2)
    assert_bit_identical(got, want, "custom semiring delegation")


# --------------------------------------------------------------------- #
# graceful absence — always-on, no backend required
# --------------------------------------------------------------------- #
def test_repro_native_off_disables_the_tier(rng, native_mode):
    native_mode("off")
    assert not native_available()
    assert native_backend_name() is None
    assert native_variant("msa") == "msa"
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    mask = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    assert not auto_select(A, A, mask).endswith("-native")


def test_native_keys_still_answer_without_backend(rng, native_mode):
    """Explicitly-requested native keys delegate instead of erroring when
    the tier is off — callers never need a guard."""
    native_mode("off")
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    mask = Mask.from_matrix(M)
    for alg in NATIVE_KEYS:
        got = masked_spgemm(A, B, mask, algorithm=alg, phases=2)
        want = masked_spgemm(A, B, mask, algorithm=NATIVE_BASE[alg],
                             phases=2)
        assert_bit_identical(got, want, f"{alg} off-delegation")


def test_unknown_mode_means_unavailable(native_mode):
    native_mode("not-a-backend")
    assert not native_available()


def test_warmup_memoized_and_gauged():
    native._reset_probe()
    try:
        eng = Engine()
        try:
            seconds = native.warmup()
            assert seconds == native.warmup()  # memoized
            gauge = _families(eng)["repro_native_compile_seconds"]
            (value,) = gauge.values()
            assert value == pytest.approx(seconds)
            if not native_available():
                assert value == 0.0
        finally:
            eng.close()
    finally:
        native._reset_probe()


# --------------------------------------------------------------------- #
# degrade ladder (chaos leg)
# --------------------------------------------------------------------- #
@needs_native
def test_chaos_native_degrades_to_fused_bit_identically(rng):
    eng = Engine(faults=FaultPlan(["engine.kernel:error:1"]))
    A, B, M = make_triple(rng, m=40, k=30, n=40)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        req = Request(a="A", b="B", mask="M", algorithm="msa-native",
                      phases=2)
        resp = eng.submit(req)
        want = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa",
                             phases=2)
        assert_bit_identical(resp.result, want, "degraded output")
        assert resp.stats.kernel_tier == "fused"
        assert resp.stats.algorithm.endswith("-native")  # plan unchanged
        fam = _families(eng)["repro_degraded_total"]
        assert fam[(("from", "native"), ("to", "fused"))] == 1
        # the fault is spent: the next request serves native again
        resp2 = eng.submit(req)
        assert resp2.stats.kernel_tier == "native"
        assert_bit_identical(resp2.result, want, "recovered output")
    finally:
        eng.close()


@needs_native
def test_engine_stamps_native_tier_and_counter(rng):
    eng = Engine()
    A, B, M = make_triple(rng, m=40, k=30, n=40)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        for _ in range(3):
            resp = eng.submit(Request(a="A", b="B", mask="M",
                                      algorithm="hash-native", phases=2))
            assert resp.stats.kernel_tier == "native"
        assert eng.stats.kernel_tiers == {"native": 3}
        fam = _families(eng)["repro_kernel_requests_total"]
        assert fam[(("tier", "native"),)] == 3
    finally:
        eng.close()


# --------------------------------------------------------------------- #
# threads over the compiled kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_thread_backend_bit_identical(rng, nworkers):
    A, B, M = make_triple(rng, m=80, k=60, n=80, da=0.08, db=0.08)
    mask = Mask.from_matrix(M)
    want = masked_spgemm(A, B, mask, algorithm="msa", phases=2)
    with ThreadExecutor(nworkers) as ex:
        got = parallel_masked_spgemm(A, B, mask,
                                     algorithm=native_variant("msa"),
                                     semiring=PLUS_TIMES, phases=2,
                                     executor=ex)
    assert_bit_identical(got, want, f"thread x{nworkers}")


def test_thread_backend_transient_pool(rng):
    A, B, M = make_triple(rng, m=50, k=40, n=50)
    mask = Mask.from_matrix(M)
    with ThreadExecutor(2) as ex:
        got = parallel_masked_spgemm(A, B, mask,
                                     algorithm=native_variant("hash"),
                                     semiring=PLUS_PAIR, phases=2,
                                     executor=ex)
    want = masked_spgemm(A, B, mask, algorithm="hash", semiring=PLUS_PAIR,
                         phases=2)
    assert_bit_identical(got, want, "transient thread pool")


def test_thread_backend_plan_reuse(rng):
    A, B, M = make_triple(rng, m=60, k=50, n=60)
    mask = Mask.from_matrix(M)
    sink = []
    with ThreadExecutor(2) as ex:
        first = parallel_masked_spgemm(A, B, mask,
                                       algorithm=native_variant("msa"),
                                       phases=2, plan_sink=sink,
                                       executor=ex)
        assert len(sink) == 1
        warm = parallel_masked_spgemm(A, B, mask,
                                      algorithm=sink[0].algorithm, phases=2,
                                      plan=sink[0], executor=ex)
    assert_bit_identical(warm, first, "warm thread replay")
