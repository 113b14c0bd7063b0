"""Shared fixtures and oracles for the test suite.

The central oracle is dense numpy arithmetic: every masked product is
checked against ``(A_dense @ B_dense) * mask_pattern`` (suitably generalized
per semiring). scipy and networkx serve as secondary oracles for formats and
graph algorithms respectively.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.mask import Mask
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import csr_random
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20220402)  # PPoPP'22 dates, why not


needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="compiled tier unavailable (needs cffi + a C compiler) on this "
           "machine — the fallback contract has its own always-on tests")


@pytest.fixture
def native_mode(monkeypatch):
    """Flip ``REPRO_NATIVE`` and re-probe; restores the real probe after."""
    def set_mode(mode):
        monkeypatch.setenv("REPRO_NATIVE", mode)
        native._reset_probe()

    yield set_mode
    monkeypatch.undo()
    native._reset_probe()


def fused_table_pick(A, B, mask, **kwargs) -> str:
    """What ``auto_select`` picks for these operands when the compiled tier
    cannot run them — the fused fallback table."""
    from unittest import mock

    from repro.core.registry import auto_select

    with mock.patch("repro.native.kernels.eligible", return_value=False):
        return auto_select(A, B, mask, **kwargs)


def make_triple(rng, m=30, k=25, n=35, da=0.12, db=0.12, dm=0.2,
                values="randint"):
    """Random (A, B, M) triple with compatible shapes."""
    A = csr_random(m, k, density=da, rng=rng, values=values)
    B = csr_random(k, n, density=db, rng=rng, values=values)
    M = csr_random(m, n, density=dm, rng=rng)
    return A, B, M


@pytest.fixture
def triple(rng):
    return make_triple(rng)


def _stored_pattern(m: CSRMatrix) -> np.ndarray:
    """Dense bool array of *stored* coordinates (explicit zeros included —
    GraphBLAS structural semantics, which the kernels follow)."""
    pat = np.zeros(m.shape, dtype=bool)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    pat[rows, m.indices] = True
    return pat


def dense_masked_product(A: CSRMatrix, B: CSRMatrix, M: CSRMatrix,
                         semiring=PLUS_TIMES, complemented=False) -> np.ndarray:
    """Dense oracle for C = M ⊙ (A ⊕.⊗ B). Returns a dense array where
    absent entries are the additive identity."""
    Ad, Bd = A.to_dense(), B.to_dense()
    Ap, Bp = _stored_pattern(A), _stored_pattern(B)
    m, n = A.shape[0], B.shape[1]
    ident = semiring.identity
    out = np.full((m, n), ident)
    exists = np.zeros((m, n), dtype=bool)
    for t in range(A.shape[1]):
        arow = Ap[:, t]
        bcol = Bp[t, :]
        pair = np.outer(arow, bcol)
        if not pair.any():
            continue
        prod = semiring.mul(
            np.broadcast_to(Ad[:, t][:, None], (m, n)),
            np.broadcast_to(Bd[t, :][None, :], (m, n)),
        )
        upd = pair & ~exists
        out[upd] = prod[upd]
        acc = pair & exists
        out[acc] = semiring.add.ufunc(out[acc], prod[acc])
        exists |= pair
    mask_pat = _stored_pattern(M) if M is not None else np.ones((m, n), bool)
    # note: mask pattern uses *stored* entries; explicit zeros in M count.
    if complemented:
        mask_pat = ~mask_pat
    out[~mask_pat] = ident
    exists &= mask_pat
    return out, exists


def stored_dense(C: CSRMatrix, identity: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, presence) dense rendering of a sparse result."""
    m, n = C.shape
    vals = np.full((m, n), identity)
    pres = np.zeros((m, n), dtype=bool)
    rows = np.repeat(np.arange(m), np.diff(C.indptr))
    vals[rows, C.indices] = C.data
    pres[rows, C.indices] = True
    return vals, pres


def assert_masked_product_correct(C: CSRMatrix, A, B, M, semiring=PLUS_TIMES,
                                  complemented=False):
    """Full structural + numeric check against the dense oracle."""
    want_vals, want_pres = dense_masked_product(A, B, M, semiring, complemented)
    got_vals, got_pres = stored_dense(C, semiring.identity)
    assert np.array_equal(got_pres, want_pres), "output pattern mismatch"
    assert np.allclose(got_vals[got_pres], want_vals[want_pres])


ALL_SEMIRINGS = [PLUS_TIMES, PLUS_PAIR, MIN_PLUS]
PLAIN_ALGOS = ["msa", "esc", "hash", "mca", "heap", "heapdot", "inner"]
COMPLEMENT_ALGOS = ["msa", "esc", "hash", "heap", "heapdot"]


# ---------------------------------------------------------------------- #
# differential oracle for the delta subsystem (repro.delta)
# ---------------------------------------------------------------------- #
def rebuild_from_scratch(m: CSRMatrix) -> CSRMatrix:
    """Independent reconstruction of ``m``: a COO round trip through fresh
    arrays, re-validated on construction. Shares nothing with ``m`` — the
    cold engine in :func:`oracle_pair` must not be able to inherit cached
    state through aliased buffers."""
    from repro.sparse.coo import COOMatrix

    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return COOMatrix(rows.copy(), m.indices.copy(), m.data.copy(),
                     m.shape).to_csr()


def assert_bit_identical(got: CSRMatrix, want: CSRMatrix, context=""):
    """Exact equality of the CSR triplet arrays — no tolerance. The delta
    machinery's contract is *bit*-identity with a cold rebuild, not
    closeness."""
    where = f" [{context}]" if context else ""
    assert got.shape == want.shape, f"shape mismatch{where}"
    assert np.array_equal(got.indptr, want.indptr), f"indptr differ{where}"
    assert np.array_equal(got.indices, want.indices), f"indices differ{where}"
    assert np.array_equal(got.data, want.data), f"data differ{where}"


def oracle_pair(engine, request):
    """Differential oracle for incremental serving.

    Submits ``request`` against ``engine`` — whose stored operands have
    typically evolved through :meth:`Engine.apply_delta` (swapped entries,
    invalidated results, carried fingerprints) — and against a *fresh cold
    engine* whose operands are rebuilt from scratch from the live store's
    current contents (so every result is computed from nothing). Returns
    ``(live, cold)`` responses; callers assert the pair bit-identical, which
    proves the whole incremental path (entry swap, result invalidation,
    fingerprint carrying) equivalent to recomputation.
    """
    from repro.service import Engine

    live = engine.submit(request)
    cold_engine = Engine()
    keys = {request.a, request.b}
    if request.mask is not None:
        keys.add(request.mask)
    for key in keys:
        value = engine.entry(key).value
        if isinstance(value, Mask):
            cold_engine.register(key, Mask.from_matrix(
                rebuild_from_scratch(value.to_matrix())))
        else:
            cold_engine.register(key, rebuild_from_scratch(value))
    cold = cold_engine.submit(request)
    return live, cold
