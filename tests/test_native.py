"""Compiled (native) kernel tier tests — the PR-9 contracts.

* **bit-identity**: ``msa-native`` produces byte-for-byte the CSR
  triplets of its fused base and the pure-Python reference,
  across every registered semiring and the off-table min/times pairing
  (each a case of the compiled dispatch), both mask polarities, both
  phase modes, empty rows, and the int32/int64 column-id boundary
  (hypothesis sweeps the shape/density space); semirings outside the op
  table, standard ufuncs from other identities among them, delegate;
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
  serial fused path, cold and on plan replay;
* **compiled symbolic pass**: the native specs' row sizes equal the fused
  symbolic functions' exactly, and a plan they size replays through every
  degrade rung bit-identically;
* **the MSA loops' edge cases**: the plain loop's stale "hit while not
  allowed" state across rows of one call, signed zeros and NaNs under
  min/max, and the complemented gather's bitset walk (word boundaries, a
  width that is not a multiple of 64) and its sort fallback;
* **per-thread scratch**: calls that reuse one thread's scratch, at growing
  and shrinking widths and after a stale-plan error, leak nothing into
  each other.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_bit_identical, fused_table_pick, make_triple,
                      needs_native)
from repro import native
from repro.core import (build_plan, hash_kernel, masked_spgemm, msa_kernel,
                        spgemm)
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import (NATIVE_BASE, auto_select,
                                 available_algorithms, get_spec,
                                 native_variant)
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.native import native_available, native_backend_name
from repro.native import cffi_backend
from repro.native import kernels as native_kernels
from repro.native.kernels import MSA_NCOLS_CAP
from repro.parallel.executor import ThreadExecutor
from repro.parallel.runner import parallel_masked_spgemm
from repro.resilience import FaultPlan
from repro.semiring import (MAX_TIMES, MIN_PLUS, PLUS_FIRST, PLUS_PAIR,
                            PLUS_TIMES, Monoid, Semiring)
from repro.semiring.standard import _REGISTRY as SEMIRINGS
from repro.service import Engine, Request
from repro.service.engine import kernel_tier
from repro.sparse import CSRMatrix, csr_from_dense, csr_random

#: the routing keys of the native tier: msa-native runs the compiled loops;
#: hash-native, whose compiled loops are gone, stays resolvable as an alias
#: of fused hash (perfbench's routing-regret probe times it), so it is held
#: to the same answers
NATIVE_KEYS = ["msa-native", "hash-native"]
#: fused kernel each key must match bit for bit
_BASE = {**NATIVE_BASE, "hash-native": "hash"}
#: a compiled pairing that is no standard semiring: min monoid, times
#: multiply (codes 1 and 0), which the dispatch runs with runtime op codes
MIN_TIMES = Semiring(MIN_PLUS.add, PLUS_TIMES.mul, "min_times",
                     mul_scalar=lambda a, b: a * b)


def _families(engine):
    from repro.obs import parse_exposition

    return parse_exposition(engine.metrics.render())


# --------------------------------------------------------------------- #
# bit-identity against fused and reference
# --------------------------------------------------------------------- #
@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("alg", NATIVE_KEYS)
    @pytest.mark.parametrize("semiring", list(SEMIRINGS) + ["min_times"])
    @pytest.mark.parametrize("complemented", [False, True])
    def test_matches_fused_all_semirings(self, rng, alg, semiring,
                                         complemented):
        A, B, M = make_triple(rng, m=60, k=50, n=55)
        mask = Mask.from_matrix(M, complemented=complemented)
        sr = {**SEMIRINGS, "min_times": MIN_TIMES}[semiring]
        for phases in (1, 2):
            got = masked_spgemm(A, B, mask, algorithm=alg, semiring=sr,
                                phases=phases)
            want = masked_spgemm(A, B, mask, algorithm=_BASE[alg],
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
            want = masked_spgemm(A, B, mask, algorithm=_BASE[alg],
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
        want = masked_spgemm(A, B, mask, algorithm=_BASE[alg],
                             semiring=sr, phases=phases)
        assert_bit_identical(
            got, want, f"{alg}/{semiring}/compl={complemented}/{phases}P")

    def test_hash_native_wide_column_ids(self, rng):
        """Column ids past 2**31 must stay int64 through both routing keys:
        hash-native (the fused hash alias) and msa-native (which hands
        rows this wide to fused msa) — an int32 truncation anywhere would
        collide or mis-sort them."""
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
            want = masked_spgemm(A, B, mask, algorithm="hash", phases=2)
            for alg in NATIVE_KEYS:
                got = masked_spgemm(A, B, mask, algorithm=alg, phases=2)
                assert_bit_identical(got, want,
                                     f"{alg} wide/compl={complemented}")

    def test_msa_native_delegates_past_ncols_cap(self, rng):
        """msa's dense scratch cannot scale to huge column counts; past
        MSA_NCOLS_CAP the native face must hand the rows to fused msa
        (which chunks its scratch) and stay bit-identical."""
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
    assert auto_select(A, A, mask) == "msa-native"
    assert native_variant("msa") == "msa-native"
    assert native_variant("hash") == "hash"  # no compiled hash loop
    assert native_variant("msa-loop") == "msa-native"
    assert native_variant("esc") == "esc"  # unmapped kernels pass through


#: (Fig. 7 regime, the fused fallback's pick for the plain mask, m, k, n,
#: input degree, mask degree) — one cell per regime the fused density
#: table once routed to its own kernel (esc, heap, inner, msa-loop)
_ROUTING_GRID = [
    ("short-rows", "msa", 96, 96, 96, 4, 4),
    ("sparse-inputs", "msa", 64, 64, 64, 2, 24),
    ("sparse-mask", "msa", 64, 64, 64, 16, 2),
    ("long-rows", "msa-loop", 128, 128, 128, 32, 32),
]
_ROUTING_SEMIRINGS = ["plus_times", "plus_pair", "plus_first", "min_plus"]


@needs_native
@pytest.mark.parametrize("regime,fused_pick,m,k,n,deg,mdeg", _ROUTING_GRID)
def test_native_first_auto_matches_reference(rng, regime, fused_pick, m, k,
                                             n, deg, mdeg):
    """Differential check of native-first routing: in every Fig. 7 regime
    ``auto`` runs msa-native and stays bit-identical to the pure-Python
    reference — plain and complemented masks, four semirings, one- and
    two-phase, and a repeated request through the engine."""
    A = csr_random(m, k, density=deg / k, rng=rng, values="uniform")
    B = csr_random(k, n, density=deg / n, rng=rng, values="uniform")
    M = csr_random(m, n, density=mdeg / n, rng=rng)
    assert fused_table_pick(A, B, Mask.from_matrix(M)) == fused_pick
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
                assert_bit_identical(cold.result, want, f"{where} engine")
                assert warm.stats.algorithm == "msa-native"
                assert_bit_identical(warm.result, want, f"{where} engine")
    finally:
        eng.close()


def test_native_tiers_not_publicly_listed():
    for key in NATIVE_KEYS:
        assert get_spec(key) is not None  # resolvable by name
        assert key not in available_algorithms()


#: semirings outside the compiled op table: a custom multiply, and standard
#: monoid ufuncs from identities other than plus 0.0, min +inf and max
#: -inf or 0.0 (the compiled loops would start from those identities where
#: the fused ``bincount`` path for ``np.add`` starts from zero)
DELEGATING = [
    Semiring(Monoid(np.add, 0.0, "custom_add"), lambda a, b: a * b,
             "custom_times", mul_scalar=lambda a, b: a * b),
    Semiring(Monoid(np.add, 5.0, "plus_from_5"), PLUS_PAIR.mul,
             "plus_from_5_pair", mul_scalar=lambda a, b: 1.0),
    Semiring(Monoid(np.minimum, 0.0, "min_from_0"), MIN_PLUS.mul,
             "min_from_0_plus", mul_scalar=lambda a, b: a + b),
    Semiring(Monoid(np.maximum, -0.0, "max_from_neg0"), MAX_TIMES.mul,
             "max_from_neg0_times", mul_scalar=lambda a, b: a * b),
]


@needs_native
@pytest.mark.parametrize("semiring", DELEGATING, ids=lambda s: s.name)
@pytest.mark.parametrize("complemented", [False, True])
def test_unregistered_semiring_delegates(rng, semiring, complemented):
    """A semiring outside the op table must silently take the fused path:
    both native keys equal their fused bases in the stitch (1P) and
    direct-write (2P) faces."""
    assert native_kernels.op_codes(semiring) is None
    A, B, M = make_triple(rng, m=40, k=30, n=45)
    mask = Mask.from_matrix(M, complemented=complemented)
    for alg in NATIVE_KEYS:
        for phases in (1, 2):
            got = masked_spgemm(A, B, mask, algorithm=alg,
                                semiring=semiring, phases=phases)
            want = masked_spgemm(A, B, mask, algorithm=_BASE[alg],
                                 semiring=semiring, phases=phases)
            assert_bit_identical(got, want, f"{alg}/{semiring.name}/"
                                            f"compl={complemented}/{phases}P")


def test_op_codes_return_canonical_identities():
    inf = float("inf")
    assert [native_kernels.op_codes(SEMIRINGS[name]) for name in
            ("plus_times", "plus_pair", "plus_first", "plus_second",
             "min_plus", "max_times", "or_and")] == [
        (0, 0, 0.0), (0, 1, 0.0), (0, 2, 0.0), (0, 3, 0.0), (1, 4, inf),
        (2, 0, -inf), (2, 5, 0.0)]
    assert native_kernels.op_codes(MIN_TIMES) == (1, 0, inf)


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
        want = masked_spgemm(A, B, mask, algorithm=_BASE[alg],
                             phases=2)
        assert_bit_identical(got, want, f"{alg} off-delegation")


@pytest.mark.parametrize("mode", ["not-a-backend", "numba"])
def test_unknown_mode_means_unavailable(native_mode, mode):
    """Unknown values, the removed ``numba`` backend among them, leave the
    tier unavailable instead of falling through to cffi."""
    native_mode(mode)
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
                                      algorithm="msa-native", phases=2))
            assert resp.stats.kernel_tier == "native"
        assert eng.stats.kernel_tiers == {"native": 3}
        assert kernel_tier("hash-native") == "fused"  # alias of fused hash
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
                                     algorithm=native_variant("msa"),
                                     semiring=PLUS_PAIR, phases=2,
                                     executor=ex)
    want = masked_spgemm(A, B, mask, algorithm="msa", semiring=PLUS_PAIR,
                         phases=2)
    assert_bit_identical(got, want, "transient thread pool")


def test_thread_backend_plan_reuse(rng):
    A, B, M = make_triple(rng, m=60, k=50, n=60)
    mask = Mask.from_matrix(M)
    key = native_variant("msa")
    plan = build_plan(A, B, mask, algorithm=key, phases=2)
    with ThreadExecutor(2) as ex:
        first = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                       executor=ex)
        warm = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                      plan=plan, executor=ex)
    assert_bit_identical(warm, first, "warm thread replay")


# --------------------------------------------------------------------- #
# compiled symbolic pass
# --------------------------------------------------------------------- #
#: fused module behind each of NATIVE_KEYS' symbolic faces
_FUSED_SYMBOLIC = (msa_kernel, hash_kernel)


@contextlib.contextmanager
def _no_fused_symbolic():
    """Rig the fused symbolic function to fail, so row sizes computed
    inside can only come from the compiled loop."""
    with mock.patch.object(msa_kernel, "symbolic_rows",
                           side_effect=AssertionError("delegated")):
        yield


def _without_rows(M, drop):
    """``M`` with every entry of the rows flagged in ``drop`` removed."""
    keep = np.repeat(~drop, np.diff(M.indptr))
    indptr = np.zeros(M.nrows + 1, dtype=np.int64)
    np.cumsum(np.where(drop, 0, np.diff(M.indptr)), out=indptr[1:])
    return CSRMatrix(indptr, M.indices[keep], M.data[keep], M.shape)


@needs_native
@given(m=st.integers(1, 40), k=st.integers(1, 40), n=st.integers(0, 40),
       da=st.floats(0.0, 0.5), dm=st.floats(0.0, 0.6),
       complemented=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
@pytest.mark.parametrize("alg", NATIVE_KEYS)
def test_native_symbolic_sizes_match_fused(alg, m, k, n, da, dm,
                                           complemented, seed):
    """Compiled row sizes equal the fused symbolic pass's exactly: both
    mask polarities, empty A rows, empty mask rows, ``ncols == 0``, all
    rows and a strict ascending subset (the runner's chunk order)."""
    r = np.random.default_rng(seed)
    A = _without_rows(csr_random(m, k, density=da, rng=r),
                      r.random(m) < 0.2)
    B = csr_random(k, n, density=da, rng=r)
    M = _without_rows(csr_random(m, n, density=dm, rng=r),
                      r.random(m) < 0.2)
    mask = Mask.from_matrix(M, complemented=complemented)
    fused = get_spec(_BASE[alg]).symbolic
    every = np.arange(m, dtype=np.int64)
    subset = np.flatnonzero(r.random(m) < 0.5)[: m - 1].astype(np.int64)
    for rows in (every, subset):
        want = fused(A, B, mask, rows)
        with _no_fused_symbolic():
            got = get_spec(alg).symbolic(A, B, mask, rows)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (alg, complemented, rows)


def _assert_symbolic_delegates(alg, fused_mod, A, B, M):
    rows = np.arange(A.nrows, dtype=np.int64)
    spec = get_spec(alg)
    for complemented in (False, True):
        mask = Mask.from_matrix(M, complemented=complemented)
        with mock.patch.object(fused_mod, "symbolic_rows",
                               wraps=fused_mod.symbolic_rows) as spy:
            got = spec.symbolic(A, B, mask, rows)
        if alg in NATIVE_BASE:
            spy.assert_called_once()
        else:  # an alias: its spec holds the fused function itself
            assert spec.symbolic is fused_mod.symbolic_rows
        assert np.array_equal(got,
                              msa_kernel.symbolic_rows(A, B, mask, rows))


@needs_native
@pytest.mark.parametrize("alg,fused_mod", zip(NATIVE_KEYS, _FUSED_SYMBOLIC),
                         ids=NATIVE_KEYS)
def test_native_symbolic_delegates_past_ncols_cap(rng, alg, fused_mod):
    """The dense state scratch is capped like MSA's: past MSA_NCOLS_CAP
    the symbolic face hands the rows to its spec's fused symbolic."""
    wide = MSA_NCOLS_CAP + 3
    k = 4
    B = CSRMatrix(np.arange(k + 1, dtype=np.int64) * 2,
                  np.array([3, wide - 2] * k, dtype=np.int64),
                  rng.random(2 * k), (k, wide))
    A = csr_random(6, k, density=0.7, rng=rng)
    M = CSRMatrix(np.arange(7, dtype=np.int64),
                  np.full(6, wide - 2, dtype=np.int64), np.ones(6), (6, wide))
    _assert_symbolic_delegates(alg, fused_mod, A, B, M)


@pytest.mark.parametrize("alg,fused_mod", zip(NATIVE_KEYS, _FUSED_SYMBOLIC),
                         ids=NATIVE_KEYS)
def test_native_symbolic_delegates_when_off(rng, native_mode, alg,
                                            fused_mod):
    native_mode("off")
    _assert_symbolic_delegates(alg, fused_mod,
                               *make_triple(rng, m=30, k=25, n=30))


@needs_native
@pytest.mark.parametrize("alg", NATIVE_KEYS)
@pytest.mark.parametrize("complemented", [False, True])
def test_cold_2p_engine_plan_replays_through_every_rung(rng, alg,
                                                        complemented):
    """A two-phase engine request runs one-phase — no symbolic pass,
    compiled or fused — on the native kernel and matches the reference
    tier; repeats forced down the fused and msa-loop rungs (through the
    ``engine.kernel`` fault seam) give the same bytes. hash-native, an
    alias of fused hash, starts on the fused rung."""
    A, B, M = make_triple(rng, m=50, k=40, n=45, da=0.1, db=0.1, dm=0.25)
    mask = Mask.from_matrix(M, complemented=complemented)
    want = reference_masked_spgemm(A, B, mask, algorithm="msa",
                                   semiring=PLUS_TIMES)
    eng = Engine()
    for name, mat in (("A", A), ("B", B), ("M", M)):
        eng.register(name, mat)
    req = Request(a="A", b="B", mask="M", algorithm=alg, phases=2,
                  complemented=complemented)
    try:
        with _no_fused_symbolic(), mock.patch.object(
                native_kernels, "msa_symbolic_rows",
                side_effect=AssertionError("symbolic pass ran")):
            cold = eng.submit(req)
        tiers = (["native"] if alg in NATIVE_BASE else []) + ["fused", "loop"]
        assert cold.stats.kernel_tier == tiers[0]
        assert_bit_identical(cold.result, want, f"{alg} cold 2P")
        for faults, tier in enumerate(tiers[1:], start=1):
            eng.faults = FaultPlan([f"engine.kernel:error:{faults}"])
            resp = eng.submit(req)
            assert resp.stats.kernel_tier == tier
            assert_bit_identical(resp.result, want, f"{alg} {tier} replay")
    finally:
        eng.close()


@needs_native
@pytest.mark.parametrize("nworkers", [1, 2, 4])
@pytest.mark.parametrize("alg", NATIVE_KEYS)
def test_thread_backend_compiled_symbolic_no_plan(rng, alg, nworkers):
    """A plan-less two-phase product runs the compiled symbolic pass per
    chunk on the pool threads, and its sizes drive the direct write; for
    hash-native, the fused hash alias, the fused pass drives it."""
    A, B, M = make_triple(rng, m=90, k=60, n=80, da=0.08, db=0.08)
    for complemented in (False, True):
        mask = Mask.from_matrix(M, complemented=complemented)
        want = reference_masked_spgemm(A, B, mask, algorithm="msa",
                                       semiring=PLUS_TIMES)
        with ThreadExecutor(nworkers) as ex, _no_fused_symbolic():
            got = parallel_masked_spgemm(A, B, mask, algorithm=alg,
                                         semiring=PLUS_TIMES, phases=2,
                                         executor=ex)
        assert_bit_identical(got, want, f"{alg} x{nworkers} "
                                        f"compl={complemented}")


# --------------------------------------------------------------------- #
# the MSA loops' edge cases, one compiled call each
# --------------------------------------------------------------------- #
def _csr(dense_rows, ncols):
    """CSR from ``[{col: value}, ...]``, keeping every listed entry (explicit
    zeros and NaNs included)."""
    indptr = np.zeros(len(dense_rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in dense_rows], out=indptr[1:])
    cols = [c for r in dense_rows for c in sorted(r)]
    vals = [r[c] for r in dense_rows for c in sorted(r)]
    return CSRMatrix(indptr, np.array(cols, dtype=np.int64),
                     np.array(vals, dtype=np.float64),
                     (len(dense_rows), ncols))


def _block_bits(block):
    return (block.sizes.tolist(), block.cols.tolist(),
            block.vals.view(np.uint64).tolist())


def _rows_bits(C, rows):
    """The ``rows`` of CSR ``C`` as a RowBlock's (sizes, cols, value bits)."""
    sizes = (C.indptr[rows + 1] - C.indptr[rows]).tolist()
    pick = np.concatenate([np.arange(C.indptr[i], C.indptr[i + 1])
                           for i in rows]).astype(np.int64)
    return sizes, C.indices[pick].tolist(), C.data[pick].view(
        np.uint64).tolist()


def _assert_msa_native_rows(A, B, mask, semiring, rows):
    """One compiled call over ``rows`` (both faces) against the fused
    kernel and the reference tier, bit for bit — NaN payloads and signed
    zeros included."""
    want = _block_bits(msa_kernel.numeric_rows(A, B, mask, semiring, rows))
    ref = _rows_bits(reference_masked_spgemm(A, B, mask, algorithm="msa",
                                             semiring=semiring), rows)
    assert ref == want, "fused msa diverged from the reference tier"
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(want[0], out=offsets[1:])
    cols = np.empty(int(offsets[-1]), dtype=np.int64)
    vals = np.empty(int(offsets[-1]), dtype=np.float64)
    # probe before the patches: its self-test calls the fused kernels
    assert native_available()
    with mock.patch.object(msa_kernel, "numeric_rows",
                           side_effect=AssertionError("delegated")), \
            mock.patch.object(msa_kernel, "numeric_rows_into",
                              side_effect=AssertionError("delegated")):
        got = native_kernels.msa_numeric_rows(A, B, mask, semiring, rows)
        native_kernels.msa_numeric_rows_into(A, B, mask, semiring, rows,
                                             cols, vals, offsets)
    assert _block_bits(got) == want
    assert (cols.tolist(), vals.view(np.uint64).tolist()) == want[1:]


@needs_native
@pytest.mark.parametrize("semiring", [PLUS_TIMES, PLUS_PAIR, PLUS_FIRST,
                                      MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda s: s.name)
def test_msa_plain_stale_hit_then_allowed(semiring):
    """Column 5 is hit while not allowed in row 0, allowed but never hit in
    row 2, then allowed and hit in row 4 — all in one call over a chunk-order
    subset. The stale hit (a stale state, or under PLUS_PAIR a stale count)
    must neither surface in row 2 nor leak its value into row 4."""
    A = _csr([{0: 2.0}, {1: 1.0}, {1: 3.0}, {0: 9.0}, {0: 0.5, 1: 4.0}], 2)
    B = _csr([{3: 1.5, 5: 7.0}, {3: 2.0, 6: -1.0}], 8)
    M = _csr([{3: 1.0}, {6: 1.0}, {3: 1.0, 5: 1.0}, {6: 1.0},
              {3: 1.0, 5: 1.0, 6: 1.0}], 8)
    mask = Mask.from_matrix(M)
    _assert_msa_native_rows(A, B, mask, semiring,
                            np.array([0, 2, 4], dtype=np.int64))
    _assert_msa_native_rows(A, B, mask, semiring,
                            np.arange(5, dtype=np.int64))


@needs_native
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("semiring", [MIN_PLUS, MAX_TIMES])
def test_msa_plain_signed_zeros_and_nans(semiring):
    """First hits still fold into the identity: a lone -0.0 product stays
    -0.0 under min/max (the identity is ±inf), NaN products propagate the
    way np.minimum/np.maximum do, and a NaN in a column outside the mask
    never reaches a later row. NaN is legal data, so no tier warns on it."""
    nan = float("nan")
    A = _csr([{0: -0.0}, {0: nan, 1: -0.0}, {1: 1.0}, {0: 0.0, 1: nan}], 2)
    B = _csr([{0: -0.0, 1: nan, 2: 0.0}, {0: 0.0, 1: -0.0, 2: nan}], 3)
    M = _csr([{0: 1.0, 2: 1.0}, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 1.0, 1: 1.0},
              {1: 1.0, 2: 1.0}], 3)
    rows = np.arange(4, dtype=np.int64)
    _assert_msa_native_rows(A, B, Mask.from_matrix(M), semiring, rows)


@needs_native
@pytest.mark.parametrize("semiring", [PLUS_TIMES, PLUS_PAIR, MIN_PLUS])
def test_msa_compl_bitset_word_boundaries(semiring):
    """130 columns (three words, the last one partial): hits on columns 63,
    64 and 129 come out sorted from the bitset walk, banned columns stay
    out, and a second row reuses the cleared words. Every row touches three
    or four columns inside three words, so the gather walks them."""
    A = _csr([{0: 1.0, 1: 2.0}, {1: 0.5, 2: 3.0}, {2: 1.0}], 3)
    B = _csr([{129: 2.0, 64: 1.0, 0: 4.0}, {63: 3.0, 64: -2.0, 1: 1.0},
              {63: 1.0, 128: 5.0, 129: 0.25}], 130)
    M = _csr([{1: 1.0}, {63: 1.0}, {}], 130)
    mask = Mask.from_matrix(M, complemented=True)
    rows = np.arange(3, dtype=np.int64)
    _assert_msa_native_rows(A, B, mask, semiring, rows)


@needs_native
def test_msa_compl_bitset_and_sort_rows_in_one_call(rng):
    """One call over 2**16 columns where some rows touch few columns over a
    wide range (sorted) and others touch a dense run (walked as a bitset).
    The last column, touched by the sorted row 0 but not by the walked row
    3, must not survive in its word.

    The output cannot tell the two gathers apart, so the rows are built to
    sit far from the sort-or-walk cost test on either side: rows 0 and 2
    touch 2 and 20 columns across 1024 words, rows 1 and 3 touch 63 and 19
    columns inside two words and one word."""
    ncols = 1 << 16
    A = _csr([{0: 1.0}, {1: 2.0}, {0: 0.5, 2: 1.0}, {2: 3.0}], 3)
    B = CSRMatrix(np.array([0, 2, 66, 85], dtype=np.int64),
                  np.concatenate([[5, ncols - 1], np.arange(1000, 1064),
                                  np.arange(ncols - 20, ncols - 1)]
                                 ).astype(np.int64),
                  rng.standard_normal(85), (3, ncols))
    M = _csr([{}, {1010: 1.0}, {ncols - 1: 1.0}, {}], ncols)
    mask = Mask.from_matrix(M, complemented=True)
    rows = np.arange(4, dtype=np.int64)
    for semiring in (PLUS_TIMES, MIN_PLUS):
        _assert_msa_native_rows(A, B, mask, semiring, rows)
        _assert_msa_native_rows(A, B, mask, semiring,
                                np.array([0, 1, 3], dtype=np.int64))


@needs_native
def test_counter_loop_direct_write_rejects_stale_offsets(rng):
    """The plus_pair counter loop validates its row sizes before it writes:
    planned offsets that move one entry between rows (same total) raise
    the stale-plan error, and the loop keeps no state a later call could
    trip on."""
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    mask = Mask.from_matrix(M)
    rows = np.arange(A.nrows, dtype=np.int64)
    sizes = msa_kernel.symbolic_rows(A, B, mask, rows)
    assert sizes.sum() > 0
    stale = sizes.copy()
    src = int(np.argmax(stale))
    stale[src] -= 1
    stale[(src + 1) % stale.size] += 1
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(stale, out=offsets[1:])
    cols = np.empty(int(offsets[-1]), dtype=np.int64)
    vals = np.empty(int(offsets[-1]), dtype=np.float64)
    assert native_available()
    with mock.patch.object(msa_kernel, "numeric_rows_into",
                           side_effect=AssertionError("delegated")), \
            pytest.raises(AlgorithmError, match="stale plan"):
        native_kernels.msa_numeric_rows_into(A, B, mask, PLUS_PAIR, rows,
                                             cols, vals, offsets)
    _assert_msa_native_rows(A, B, mask, PLUS_PAIR, rows)


@needs_native
def test_backend_wrapper_rejects_strided_rows(rng):
    """A non-contiguous ``rows`` view must raise before C reads it: its
    base pointer would hand the loop rows 0, 1, 2, … instead of the
    strided 0, 2, 4, …"""
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    rows = np.arange(A.nrows, dtype=np.int64)[::2]
    assert not rows.flags.c_contiguous
    sizes = np.zeros(rows.size, dtype=np.int64)
    with pytest.raises(ValueError, match="contiguous"):
        cffi_backend.symbolic(A.indptr, A.indices, B.indptr, B.indices,
                              M.indptr, M.indices, rows, 0, sizes,
                              np.zeros(B.ncols, dtype=np.int8),
                              np.empty(B.ncols, dtype=np.int64))


# --------------------------------------------------------------------- #
# per-thread scratch reused across calls
# --------------------------------------------------------------------- #
#: output widths of the sequence: growing, then shrinking
_SCRATCH_WIDTHS = (40, 700, 5000, 700, 40)


def _scratch_cases(seed):
    """``(n, A, B, M, want)`` at every width of :data:`_SCRATCH_WIDTHS`,
    ``want`` holding the reference product per polarity and semiring."""
    r = np.random.default_rng(seed)
    cases = []
    for n in _SCRATCH_WIDTHS:
        A = csr_random(30, 20, density=0.2, rng=r, values="uniform")
        B = csr_random(20, n, density=min(1.0, 6 / n), rng=r,
                       values="uniform")
        # half the product's pattern, so plain rows keep some columns and
        # complemented rows ban some, plus columns the product never hits
        hit = spgemm(A, B).to_dense() != 0
        extra = csr_random(30, n, density=min(1.0, 4 / n), rng=r)
        M = csr_from_dense(((hit & (r.random(hit.shape) < 0.5))
                            | (extra.to_dense() != 0)).astype(float))
        want = {}
        for complemented in (False, True):
            mask = Mask.from_matrix(M, complemented=complemented)
            for sr in (PLUS_TIMES, PLUS_PAIR):
                want[complemented, sr.name] = reference_masked_spgemm(
                    A, B, mask, algorithm="msa", semiring=sr)
        cases.append((n, A, B, M, want))
    return cases


def _scratch_sequence(cases):
    """Plain, complemented CSR, complemented bitmap and symbolic calls at
    every width of ``cases`` (growing, then shrinking), then at each width
    a stale-plan error on both polarities followed by a call of each
    polarity, all on the calling thread, each compared bit for bit with
    the reference tier."""
    rows = np.arange(30, dtype=np.int64)

    def check(A, B, mask, sr, C, where):
        got = native_kernels.msa_numeric_rows(A, B, mask, sr, rows)
        assert _block_bits(got) == _rows_bits(C, rows), where
        sizes = native_kernels.msa_symbolic_rows(A, B, mask, rows)
        assert np.array_equal(sizes, np.diff(C.indptr)), f"{where} symbolic"

    def stale_into(A, B, mask, sr, C, where):
        sizes = np.diff(C.indptr).copy()
        src = int(np.argmax(sizes))
        assert sizes[src] > 0, where
        sizes[src] -= 1
        sizes[(src + 1) % sizes.size] += 1
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        cols = np.empty(int(offsets[-1]), dtype=np.int64)
        vals = np.empty(int(offsets[-1]), dtype=np.float64)
        with pytest.raises(AlgorithmError, match="stale plan"):
            native_kernels.msa_numeric_rows_into(A, B, mask, sr, rows,
                                                 cols, vals, offsets)

    for n, A, B, M, want in cases:
        plain = Mask.from_matrix(M)
        compl = Mask.from_matrix(M, complemented=True)
        bitmap = Mask.from_bitmap(M.to_dense() != 0, complemented=True)
        for sr in (PLUS_TIMES, PLUS_PAIR):
            check(A, B, plain, sr, want[False, sr.name], f"n={n} plain")
            check(A, B, compl, sr, want[True, sr.name], f"n={n} compl")
            check(A, B, bitmap, sr, want[True, sr.name], f"n={n} bitmap")
    for n, A, B, M, want in cases:
        plain = Mask.from_matrix(M)
        compl = Mask.from_matrix(M, complemented=True)
        for sr in (PLUS_TIMES, PLUS_PAIR):
            where = f"n={n} {sr.name} after stale"
            stale_into(A, B, plain, sr, want[False, sr.name], where)
            stale_into(A, B, compl, sr, want[True, sr.name], where)
            check(A, B, plain, sr, want[False, sr.name], where)
            check(A, B, compl, sr, want[True, sr.name], where)


#: skips only where the tier cannot be built (``REPRO_NATIVE`` turns it
#: off, or cffi or a C compiler is missing): a tier that builds but fails
#: its probe self-test fails the test below instead of skipping it
can_build_native = pytest.mark.skipif(
    os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    not in ("auto", "", "cffi", "c")
    or importlib.util.find_spec("cffi") is None
    or cffi_backend._compiler() is None,
    reason="the compiled tier cannot be built here")


@can_build_native
def test_scratch_reuse_leaks_nothing_between_calls():
    """The compiled loops reuse one scratch set per thread. The plain loops
    leave stale hit states in columns outside the mask, which the
    complemented and symbolic loops (which need their states all zero)
    must never see; a wider call regrows the scratch, a narrower one
    reuses it, and a stale-plan error leaves it clean. Run on this thread
    and on two pool threads at once."""
    assert native_available()
    cases = [_scratch_cases(seed) for seed in range(3)]
    # patched once, here: patching a module from two threads at once can
    # restore the wrong object
    with mock.patch.object(msa_kernel, "numeric_rows",
                           side_effect=AssertionError("delegated")), \
            mock.patch.object(msa_kernel, "numeric_rows_into",
                              side_effect=AssertionError("delegated")), \
            _no_fused_symbolic():
        _scratch_sequence(cases[0])
        with ThreadExecutor(2) as ex:
            ex.map(_scratch_sequence, cases[1:])
