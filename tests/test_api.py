"""Dispatcher tests: masked_spgemm options, registry, auto-selection,
baselines, plain spgemm."""

import numpy as np
import pytest

from conftest import fused_table_pick, make_triple, needs_native
from repro.core import (
    algorithm_info,
    available_algorithms,
    build_plan,
    display_name,
    masked_spgemm,
    spgemm,
)
from repro.core.registry import (BASELINE_KEYS, LOOP_ROW_FLOPS, auto_select,
                                 get_spec, parse_name)
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.native.kernels import MSA_NCOLS_CAP
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.sparse import CSRMatrix, csr_random


def test_mask_argument_flexibility(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa")
    # raw CSRMatrix accepted as a plain mask
    got = masked_spgemm(A, B, M, algorithm="msa")
    assert got.equals(want)
    # None = unmasked
    unmasked = masked_spgemm(A, B, None, algorithm="msa")
    assert unmasked.allclose_values(spgemm(A, B))


def test_invalid_phase_count(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="msa", phases=3)


def test_invalid_tier(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="msa", tier="turbo")


def test_unknown_algorithm(rng):
    A, B, M = make_triple(rng)
    with pytest.raises(AlgorithmError):
        masked_spgemm(A, B, M, algorithm="does-not-exist")


def test_reference_tier_dispatch(rng):
    A, B, M = make_triple(rng)
    v = masked_spgemm(A, B, M, algorithm="hash")
    r = masked_spgemm(A, B, M, algorithm="hash", tier="reference")
    assert v.equals(r)


def test_baselines_match_kernels(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, M, algorithm="msa")
    for base in BASELINE_KEYS:
        got = masked_spgemm(A, B, M, algorithm=base)
        # saxpy baselines keep explicit zeros differently; compare dense
        assert got.allclose_values(want), base


def test_baseline_plus_pair(rng):
    A, B, M = make_triple(rng)
    want = masked_spgemm(A, B, M, algorithm="msa", semiring=PLUS_PAIR)
    got = masked_spgemm(A, B, M, algorithm="saxpy-scipy", semiring=PLUS_PAIR)
    assert got.allclose_values(want)


def test_registry_contents():
    algs = available_algorithms()
    assert set(algs) == {"msa", "esc", "hash", "mca", "heap", "heapdot",
                         "inner", "hybrid"}
    compl = available_algorithms(complemented=True)
    assert "mca" not in compl and "inner" not in compl
    assert "hybrid" in compl and "esc" in compl
    assert "saxpy" in available_algorithms(include_baselines=True)


def test_display_and_parse_names():
    assert display_name("msa", 1) == "MSA-1P"
    assert display_name("heapdot", 2) == "HeapDot-2P"
    assert display_name("saxpy") == "SS:SAXPY*"
    assert parse_name("MSA-2P") == ("msa", 2)
    assert parse_name("hash") == ("hash", 1)
    with pytest.raises(AlgorithmError):
        parse_name("BOGUS-1P")


def test_algorithm_info():
    spec = algorithm_info("mca")
    assert spec.family == "push"
    assert not spec.supports_complement
    assert "mask rank" in spec.description.lower() or "Mask" in spec.description


def test_auto_select_follows_row_flops_rule(rng, native_mode):
    """Native first: every product the compiled tier can run goes to
    msa-native. The fused fallback (``REPRO_NATIVE=off``) sends rows
    averaging ``LOOP_ROW_FLOPS`` partial products or more to msa-loop and
    every other product to msa, whatever the mask's density or polarity."""
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)    # ~256 flops per row
    B = csr_random(n, n, density=16 / n, rng=rng)
    L = csr_random(n, n, density=40 / n, rng=rng)    # ~1170 flops per row
    sparse_mask = Mask.from_matrix(csr_random(n, n, density=1 / n, rng=rng))
    dense_mask = Mask.from_matrix(csr_random(n, n, density=100 / n, rng=rng))
    comparable = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    compl = Mask.from_matrix(csr_random(n, n, density=0.1, rng=rng),
                             complemented=True)
    masks = {"sparse": sparse_mask, "dense": dense_mask,
             "comparable": comparable, "complemented": compl}
    # the rule's edge: one row of exactly LOOP_ROW_FLOPS products, and one
    # product fewer
    k = LOOP_ROW_FLOPS
    edge = CSRMatrix(np.array([0, k]), np.arange(k), np.ones(k), (1, k))
    below = CSRMatrix(np.array([0, k - 1]), np.arange(k - 1),
                      np.ones(k - 1), (1, k))
    col = CSRMatrix(np.arange(k + 1), np.zeros(k, dtype=np.int64),
                    np.ones(k), (k, 1))
    one = Mask.from_matrix(CSRMatrix(np.array([0, 1]), np.array([0]),
                                     np.ones(1), (1, 1)))
    fused = [(f"short {name}", (A, B, mask), "msa")
             for name, mask in masks.items()]
    fused += [(f"long {name}", (L, L, mask), "msa-loop")
              for name, mask in masks.items()]
    fused += [("edge", (edge, col, one), "msa-loop"),
              ("below edge", (below, col, one), "msa")]
    from repro.native import native_available

    native = native_available()
    for name, operands, pick in fused:
        want = "msa-native" if native else pick
        assert auto_select(*operands) == want, name
    native_mode("off")
    for name, operands, pick in fused:
        assert auto_select(*operands) == pick, name


@needs_native
def test_auto_select_unsupported_semiring_keeps_fused_pick(rng):
    from repro.semiring import Monoid, Semiring

    custom = Semiring(Monoid(np.add, 0.0, "custom_add"), lambda a, b: a * b,
                      "custom_times", mul_scalar=lambda a, b: a * b)
    n = 128
    A = csr_random(n, n, density=16 / n, rng=rng)
    mask = Mask.from_matrix(csr_random(n, n, density=16 / n, rng=rng))
    assert auto_select(A, A, mask) == "msa-native"
    assert auto_select(A, A, mask, semiring=custom) == "msa"
    assert fused_table_pick(A, A, mask) == "msa"
    # the plan path resolves the same fused kernel for the custom semiring
    assert build_plan(A, A, mask, phases=2, semiring=custom).algorithm == "msa"


@needs_native
def test_auto_select_float32_values_keep_fused_pick(rng):
    n = 512
    A = csr_random(n, n, density=4 / n, rng=rng)   # short rows → msa
    A32 = CSRMatrix(A.indptr, A.indices, A.data.astype(np.float32), A.shape)
    assert A32.data.dtype == np.float32
    mask = Mask.from_matrix(csr_random(n, n, density=4 / n, rng=rng))
    assert auto_select(A, A, mask) == "msa-native"
    assert auto_select(A32, A32, mask) == "msa"
    assert fused_table_pick(A32, A32, mask) == "msa"


@needs_native
@pytest.mark.parametrize("wide,pick", [((1 << 15) + 1, "msa-native"),
                                       (MSA_NCOLS_CAP, "msa-native"),
                                       (MSA_NCOLS_CAP + 1, "msa")])
def test_auto_select_wide_output_routes_to_msa(rng, wide, pick):
    """The compiled MSA reuses its per-thread scratch, so it serves wide
    outputs up to MSA_NCOLS_CAP columns; past the cap the product goes to
    fused msa, which works in mask-rank space and allocates nothing
    ``ncols`` wide."""
    A = csr_random(64, 64, density=0.1, rng=rng)
    B = csr_random(64, wide, nnz=64 * 16, rng=rng)
    mask = Mask.from_matrix(csr_random(64, wide, nnz=64 * 8, rng=rng))
    compl = Mask.from_matrix(mask.to_matrix(), complemented=True)
    for m in (mask, compl):
        assert auto_select(A, B, m) == pick
        assert fused_table_pick(A, B, m) == "msa"


def test_auto_runs_end_to_end(rng):
    A, B, M = make_triple(rng)
    C = masked_spgemm(A, B, M, algorithm="auto")
    want = masked_spgemm(A, B, M, algorithm="msa")
    assert C.equals(want)


def test_spgemm_matches_scipy(rng):
    from repro.sparse.convert import to_scipy

    A, B, _ = make_triple(rng)
    got = spgemm(A, B)
    want = (to_scipy(A) @ to_scipy(B)).toarray()
    assert np.allclose(got.to_dense(), want)


def test_get_spec_unknown():
    with pytest.raises(AlgorithmError):
        get_spec("nope")
