"""Differential-oracle harness for incremental serving (repro.delta).

The contract under test is absolute: every delta path — value-only swaps,
pattern splices, sharpened B-side propagation, result patching, the
plan-free route — must leave the engine serving products **bit-identical**
to a cold engine whose operands were rebuilt from scratch and whose plans
were built cold. :func:`conftest.oracle_pair` implements that comparison;
the hypothesis strategies drive it across random matrices and batches
(empty batches, duplicate edges, delete-then-reinsert, rows emptied out),
and the directed tests pin each mechanism individually.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bit_identical, oracle_pair, rebuild_from_scratch
from repro.core import registry
from repro.core.plan import build_plan, splice_plan
from repro.delta import DeltaBatch, DeltaError
from repro.errors import AlgorithmError
from repro.graphs import erdos_renyi, rmat, to_undirected_simple
from repro.mask import Mask
from repro.semiring import PLUS_PAIR, PLUS_TIMES
from repro.service import Engine, Request
from repro.service.plan import plan_key
from repro.service.result_cache import result_key
from repro.service.store import StoreError
from repro.sparse import csr_random
from repro.sparse import ops
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _matrix_from_cells(n: int, cells: dict) -> CSRMatrix:
    """CSR over exactly the (row, col) → value mapping ``cells``."""
    if not cells:
        return COOMatrix(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.float64), (n, n)).to_csr()
    coords = sorted(cells)
    rows = np.array([r for r, _ in coords], dtype=np.int64)
    cols = np.array([c for _, c in coords], dtype=np.int64)
    vals = np.array([float(cells[c]) for c in coords])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


# ---------------------------------------------------------------------- #
# DeltaBatch semantics
# ---------------------------------------------------------------------- #
class TestBatchSemantics:
    def _base(self, n=6):
        return _matrix_from_cells(n, {(0, 1): 2, (0, 4): 3, (1, 0): 1,
                                      (2, 2): 5, (4, 3): 7, (5, 5): 4})

    def test_empty_batch_is_noop_same_object(self):
        m = self._base()
        res = DeltaBatch().apply(m)
        assert res.kind == "noop"
        assert res.matrix is m          # pure no-op: not even a copy
        assert res.dirty_rows.size == 0 and res.changed_keys.size == 0

    def test_delete_unstored_is_noop(self):
        m = self._base()
        res = DeltaBatch(delete=[(3, 3), (0, 0)]).apply(m)
        assert res.kind == "noop" and res.matrix is m

    def test_insert_on_stored_coordinate_is_value_only(self):
        m = self._base()
        res = DeltaBatch(insert=[(0, 1, 9.0)]).apply(m)
        assert res.kind == "value"
        assert res.dirty_rows.size == 0
        # pattern arrays are shared, values are fresh
        assert res.matrix.indptr is m.indptr
        assert res.matrix.indices is m.indices
        assert res.matrix.data is not m.data
        assert res.matrix.data[np.searchsorted(m.indices[:2], 1)] == 9.0
        assert m.data[0] == 2.0         # source never mutated

    def test_duplicate_coordinates_last_occurrence_wins(self):
        m = self._base()
        res = DeltaBatch(insert=[(3, 3, 1.0), (3, 3, 8.0)]).apply(m)
        got = {(r, c): v for r, c, v in zip(
            np.repeat(np.arange(6), np.diff(res.matrix.indptr)),
            res.matrix.indices, res.matrix.data)}
        assert got[(3, 3)] == 8.0

    def test_delete_then_reinsert_leaves_row_pattern_clean(self):
        m = self._base()
        res = DeltaBatch(delete=[(0, 1)], insert=[(0, 1, 6.0)]).apply(m)
        assert res.kind == "value"      # pattern round-tripped
        assert res.dirty_rows.size == 0
        assert res.matrix.same_pattern(m)

    def test_strict_update_of_unstored_raises(self):
        with pytest.raises(DeltaError, match="update"):
            DeltaBatch(update=[(3, 3, 1.0)]).apply(self._base())

    def test_out_of_range_coordinates_raise(self):
        for bad in ({"insert": [(6, 0, 1.0)]}, {"delete": [(0, -1)]},
                    {"update": [(0, 99, 1.0)]}):
            with pytest.raises(DeltaError, match="out of range"):
                DeltaBatch(**bad).apply(self._base())

    def test_malformed_edge_lists_raise(self):
        with pytest.raises(DeltaError):
            DeltaBatch(insert=[(0, 1)]).apply(self._base())   # missing value
        with pytest.raises(DeltaError):
            DeltaBatch(delete=[(0, 1, 2, 3)]).apply(self._base())
        with pytest.raises(DeltaError, match="integers"):
            DeltaBatch(delete=[(0.5, 1)]).apply(self._base())

    def test_row_shrinks_to_empty(self):
        m = self._base()
        res = DeltaBatch(delete=[(0, 1), (0, 4)]).apply(m)
        assert res.kind == "pattern"
        assert 0 in res.dirty_rows
        assert np.diff(res.matrix.indptr)[0] == 0

    def test_changed_keys_is_exact_coordinate_symmetric_difference(self):
        m = self._base()
        res = DeltaBatch(delete=[(0, 1)], insert=[(3, 3, 1.0)]).apply(m)
        want = np.sort(ops.coord_keys(np.array([0, 3]), np.array([1, 3]),
                                      m.ncols))
        assert np.array_equal(res.changed_keys, want)

    def test_mixed_kind_when_pattern_and_values_both_move(self):
        m = self._base()
        res = DeltaBatch(delete=[(0, 1)], update=[(2, 2, 9.0)]).apply(m)
        assert res.kind == "mixed"
        assert np.array_equal(res.dirty_rows, [0])


# ---------------------------------------------------------------------- #
# hypothesis strategies: matrices + delta batches
# ---------------------------------------------------------------------- #
@st.composite
def delta_case(draw, n_min=3, n_max=9):
    """A base cell map plus a batch whose updates are guaranteed valid
    (updates target coordinates that survive the deletes+inserts)."""
    n = draw(st.integers(n_min, n_max))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    val = st.integers(1, 9)
    base = draw(st.dictionaries(cell, val, max_size=3 * n))
    deletes = draw(st.lists(cell, max_size=6))
    inserts = draw(st.lists(st.tuples(cell, val), max_size=6))
    survivors = sorted((set(base) - set(deletes)) | {c for c, _ in inserts})
    updates = (draw(st.lists(st.tuples(st.sampled_from(survivors), val),
                             max_size=4)) if survivors else [])
    batch = DeltaBatch(
        insert=[(r, c, float(v)) for (r, c), v in inserts],
        delete=list(deletes),
        update=[(r, c, float(v)) for (r, c), v in updates])
    return n, base, batch


class TestDifferentialOracle:
    """Every delta path vs rebuild-from-scratch + cold re-plan."""

    @given(delta_case())
    @settings(max_examples=40, deadline=None)
    def test_self_product_any_batch(self, case):
        """k-truss shape: C ⊙ (C·C) with PLUS_PAIR, one key in all three
        slots — a single delta exercises the a-, b- and mask-slot splices
        at once."""
        n, base, batch = case
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("G", _matrix_from_cells(n, base))
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)                     # warm plan + cached result
        out = eng.apply_delta("G", batch)
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result, context=out.kind)

    @given(delta_case(), st.sampled_from(["A", "B", "M"]))
    @settings(max_examples=40, deadline=None)
    def test_distinct_operands_delta_on_each_slot(self, case, slot):
        """Distinct A, B, mask (integer values — exact in f64); the delta
        lands in one slot, covering the 1:1 row map (A/M) and the sharpened
        B-side propagation separately."""
        n, base, batch = case
        rng = np.random.default_rng(n * 1000 + len(base))
        mats = {"A": _matrix_from_cells(n, base),
                "B": csr_random(n, n, density=0.3, rng=rng, values="randint"),
                "M": csr_random(n, n, density=0.4, rng=rng)}
        if slot != "A":   # the batch was drawn against `base`'s cell map
            mats[slot], mats["A"] = mats["A"], mats[slot]
        eng = Engine(result_cache_bytes=1 << 24)
        for k, v in mats.items():
            eng.register(k, v)
        req = Request(a="A", b="B", mask="M", phases=2,
                      semiring="plus_times")
        eng.submit(req)
        out = eng.apply_delta(slot, batch)
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result,
                             context=f"slot={slot} kind={out.kind}")

    @given(delta_case(n_min=4))
    @settings(max_examples=25, deadline=None)
    def test_complemented_mask_fallback(self, case):
        """B-slot deltas under a complemented mask take the conservative
        rows_touching fallback — still bit-identical."""
        n, base, batch = case
        rng = np.random.default_rng(n)
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("A", csr_random(n, n, density=0.3, rng=rng,
                                     values="randint"))
        eng.register("B", _matrix_from_cells(n, base))
        eng.register("M", csr_random(n, n, density=0.3, rng=rng))
        req = Request(a="A", b="B", mask="M", complemented=True, phases=2,
                      algorithm="esc", semiring="plus_times")
        eng.submit(req)
        eng.apply_delta("B", batch)
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result)

    def test_oracle_on_er_graph_delete_and_reinsert_waves(self, rng):
        """Streaming shape on an Erdős–Rényi graph: waves of deletes, then
        re-inserts of some of the same edges (pattern round trips for those
        rows), bit-identical after every wave."""
        g = to_undirected_simple(erdos_renyi(48, 4, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("G", g)
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        edges = np.column_stack((rows, g.indices))
        pick = rng.choice(edges.shape[0], size=12, replace=False)
        eng.apply_delta("G", DeltaBatch(delete=edges[pick]))
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result, context="delete wave")
        back = edges[pick[:6]]
        eng.apply_delta("G", DeltaBatch(
            insert=[(int(r), int(c), 1.0) for r, c in back]))
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result, context="reinsert")


# ---------------------------------------------------------------------- #
# dirty-row computation, pinned
# ---------------------------------------------------------------------- #
class TestDirtyRows:
    def _warm_engine(self, rng, n=40):
        g = to_undirected_simple(rmat(6, 4, rng=rng)).pattern()
        eng = Engine()
        eng.register("G", g)
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)
        return eng, g, req

    def test_spliced_plan_matches_cold_plan_everywhere(self, rng):
        """After a pattern delta, the spliced plan's row sizes equal a cold
        plan's on every row — clean rows carried, dirty rows recomputed."""
        eng, g, req = self._warm_engine(rng)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        edges = np.column_stack((rows, g.indices))
        pick = rng.choice(edges.shape[0], size=8, replace=False)
        out = eng.apply_delta("G", DeltaBatch(delete=edges[pick]))
        assert out.plans_spliced == 1
        new = rebuild_from_scratch(eng.entry("G").value)
        mask = Mask.from_matrix(new)
        (pkey, spliced), = [(k, p) for k, p in eng.plans.items()
                            if k[0] == out.pattern_fingerprint]
        cold = build_plan(new, new, mask, algorithm=spliced.algorithm,
                          phases=2)
        assert np.array_equal(spliced.row_sizes, cold.row_sizes)

    def test_splice_plan_empty_dirty_returns_same_object(self, rng):
        a = csr_random(12, 12, density=0.3, rng=rng)
        mask = Mask.from_matrix(csr_random(12, 12, density=0.3, rng=rng))
        plan = build_plan(a, a, mask, algorithm="msa", phases=2)
        assert splice_plan(plan, a, a, mask, np.empty(0, np.int64)) is plan

    def test_splice_plan_runs_symbolic_over_exactly_dirty_rows(
            self, rng, monkeypatch):
        """The incremental claim itself: the symbolic pass inside a splice
        visits the dirty rows and nothing else."""
        a = csr_random(16, 16, density=0.25, rng=rng)
        mask = Mask.from_matrix(csr_random(16, 16, density=0.3, rng=rng))
        plan = build_plan(a, a, mask, algorithm="esc", phases=2)
        visited = _record_symbolic(monkeypatch)
        dirty = np.array([2, 7, 11], dtype=np.int64)
        spliced = splice_plan(plan, a, a, mask, dirty)
        assert len(visited) == 1
        assert np.array_equal(np.sort(visited[0]), dirty)
        # and the clean rows were carried over untouched
        clean = np.setdiff1d(np.arange(16), dirty)
        assert np.array_equal(spliced.row_sizes[clean], plan.row_sizes[clean])

    def test_splice_plan_given_sizes_skip_symbolic(self, rng, monkeypatch):
        """Sizes handed in (from a patch block) are spliced as they are;
        a count that does not match the dirty rows is refused."""
        a = csr_random(16, 16, density=0.25, rng=rng)
        mask = Mask.from_matrix(csr_random(16, 16, density=0.3, rng=rng))
        plan = build_plan(a, a, mask, algorithm="msa", phases=2)
        calls = _record_symbolic(monkeypatch)
        dirty = np.array([2, 7, 11], dtype=np.int64)
        spliced = splice_plan(plan, a, a, mask, dirty, np.array([5, 0, 1]))
        assert calls == []
        assert list(spliced.row_sizes[dirty]) == [5, 0, 1]
        with pytest.raises(AlgorithmError, match="row sizes"):
            splice_plan(plan, a, a, mask, dirty, np.array([5, 0]))

    def test_splice_plan_rejects_out_of_range_dirty(self, rng):
        a = csr_random(8, 8, density=0.3, rng=rng)
        mask = Mask.from_matrix(a)
        plan = build_plan(a, a, mask, algorithm="msa", phases=2)
        with pytest.raises(AlgorithmError, match="dirty rows"):
            splice_plan(plan, a, a, mask, np.array([8]))

    def test_rows_affected_through_covers_every_changed_output_row(self, rng):
        """Soundness of the sharpened B-side propagation: every output row
        that actually differs after a B-pattern change is in the computed
        set, and the set never exceeds the naive neighborhood bound."""
        from repro.core import masked_spgemm

        n = 30
        for trial in range(5):
            A = csr_random(n, n, density=0.15, rng=rng, values="randint")
            B = csr_random(n, n, density=0.15, rng=rng, values="randint")
            M = csr_random(n, n, density=0.3, rng=rng)
            res = DeltaBatch(delete=[
                (int(r), int(c)) for r, c in zip(
                    np.repeat(np.arange(n), B.row_nnz()), B.indices)][:5]
            ).apply(B)
            B2 = res.matrix
            affected = ops.rows_affected_through(
                A, M.indptr, M.indices, res.changed_keys, n)
            mask = Mask.from_matrix(M)
            C1 = masked_spgemm(A, B, mask, algorithm="msa",
                               semiring=PLUS_TIMES)
            C2 = masked_spgemm(A, B2, mask, algorithm="msa",
                               semiring=PLUS_TIMES)
            d1, d2 = C1.to_dense(), C2.to_dense()
            changed = np.flatnonzero((d1 != d2).any(axis=1))
            assert np.all(np.isin(changed, affected)), \
                f"trial {trial}: changed rows escape the dirty set"
            naive = ops.rows_touching(A, res.dirty_rows)
            assert np.all(np.isin(affected, naive))

    def test_splice_result_rows_matches_dense_edit(self, rng):
        m = csr_random(14, 10, density=0.3, rng=rng, values="randint")
        dirty = np.array([1, 5, 13], dtype=np.int64)
        sizes = np.array([0, 3, 2], dtype=np.int64)
        cols = np.array([2, 5, 9, 0, 4], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = ops.splice_result_rows(m, dirty, sizes, cols, vals)
        want = m.to_dense()
        want[dirty] = 0.0               # sizes align with dirty positionally:
        want[5, [2, 5, 9]] = [1.0, 2.0, 3.0]   # row 1 → 0 entries,
        want[13, [0, 4]] = [4.0, 5.0]          # row 5 → 3, row 13 → 2
        assert np.array_equal(out.to_dense(), want)
        assert np.diff(out.indptr)[1] == 0 and np.diff(out.indptr)[5] == 3
        # clean rows bit-equal to the source
        clean = np.setdiff1d(np.arange(14), dirty)
        assert np.array_equal(out.to_dense()[clean], m.to_dense()[clean])


# ---------------------------------------------------------------------- #
# cache economics across deltas (regression)
# ---------------------------------------------------------------------- #
class TestCacheEconomics:
    def _pair(self, rng, n=24):
        eng = Engine(result_cache_bytes=1 << 24)
        for key in ("A", "B", "M", "X", "Y"):
            eng.register(key, csr_random(n, n, density=0.25, rng=rng,
                                         values="randint"))
        r1 = Request(a="A", b="B", mask="M", phases=2)
        r2 = Request(a="X", b="Y", mask="M", phases=2)
        eng.submit(r1)
        eng.submit(r2)
        return eng, r1, r2

    def test_value_only_delta_keeps_plan_cache_perfect(self, rng):
        """A value delta must not cost a single plan miss: the pattern
        fingerprint is carried forward, so the next request is a plan hit
        (the result tier misses — values changed — exactly once)."""
        eng, r1, _ = self._pair(rng)
        a = eng.entry("A").value
        rows = np.repeat(np.arange(a.nrows), a.row_nnz())
        upd = [(int(rows[i]), int(a.indices[i]), float(a.data[i] + 1))
               for i in range(0, a.nnz, 3)]
        misses_before = eng.plans.misses
        out = eng.apply_delta("A", DeltaBatch(update=upd))
        assert out.kind == "value" and out.plans_spliced == 0
        assert out.pattern_fingerprint == eng.entry("A").fingerprint
        resp = eng.submit(r1)
        assert resp.stats.plan_cache_hit and not resp.stats.result_cache_hit
        assert eng.plans.misses == misses_before
        live, cold = oracle_pair(eng, r1)
        assert_bit_identical(live.result, cold.result)

    def test_value_delta_invalidates_only_affected_result_entries(self, rng):
        """The fingerprint scan is targeted: mutating A kills A·B's cached
        product but X·Y's survives and still serves from the result tier."""
        eng, r1, r2 = self._pair(rng)
        out = eng.apply_delta("A", DeltaBatch(update=[(0, int(
            eng.entry("A").value.indices[0]), 99.0)]))
        assert out.results_invalidated >= 1
        assert eng.submit(r2).stats.result_cache_hit    # innocent survives
        assert not eng.submit(r1).stats.result_cache_hit

    def test_pattern_delta_patches_cached_result(self, rng):
        """kind == "pattern" with a resident product: the splice carries the
        plan AND the result — the first post-delta request is a result-tier
        hit, bit-identical to a cold rebuild."""
        g = to_undirected_simple(rmat(6, 6, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("G", g)
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        edges = np.column_stack((rows, g.indices))
        out = eng.apply_delta("G", DeltaBatch(delete=edges[
            rng.choice(edges.shape[0], size=10, replace=False)]))
        assert out.kind == "pattern"
        assert out.plans_spliced == 1 and out.results_patched == 1
        live, cold = oracle_pair(eng, req)
        assert live.stats.result_cache_hit
        assert_bit_identical(live.result, cold.result)

    def test_mixed_delta_never_patches_results(self, rng):
        """A mixed batch's value updates land outside the dirty row set, so
        patching would be unsound — the engine must skip it (and still serve
        bit-identically from a fresh numeric pass)."""
        eng, r1, _ = self._pair(rng)
        a = eng.entry("A").value
        rows = np.repeat(np.arange(a.nrows), a.row_nnz())
        out = eng.apply_delta("A", DeltaBatch(
            delete=[(int(rows[0]), int(a.indices[0]))],
            update=[(int(rows[-1]), int(a.indices[-1]), 42.0)]))
        assert out.kind == "mixed" and out.results_patched == 0
        live, cold = oracle_pair(eng, r1)
        assert not live.stats.result_cache_hit
        assert_bit_identical(live.result, cold.result)

    def test_patched_result_key_names_post_delta_content(self, rng):
        """The patched entry is reachable under the *new* fingerprints only
        — probing with old fingerprints misses (no resurrection)."""
        g = to_undirected_simple(rmat(5, 5, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("G", g)
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)
        old_fp = eng.entry("G").fingerprint
        old_vfp = eng.entry("G").value_fingerprint
        old_key = result_key(
            plan_key(old_fp, old_fp, old_fp, False, "auto", 2, "plus_pair"),
            old_vfp, old_vfp)
        assert old_key in eng.results       # resident before the delta
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        eng.apply_delta("G", DeltaBatch(
            delete=[(int(rows[0]), int(g.indices[0]))]))
        assert old_key not in eng.results

    def test_delta_kind_counters(self, rng):
        eng = Engine()
        eng.register("G", csr_random(10, 10, density=0.3, rng=rng))
        g = eng.entry("G").value
        rows = np.repeat(np.arange(10), g.row_nnz())
        eng.apply_delta("G", DeltaBatch())                        # noop
        eng.apply_delta("G", DeltaBatch(
            update=[(int(rows[0]), int(g.indices[0]), 5.0)]))     # value
        eng.apply_delta("G", DeltaBatch(
            delete=[(int(rows[1]), int(g.indices[1]))]))          # pattern
        rendered = eng.metrics.render()
        for kind in ("noop", "value", "pattern"):
            assert f'repro_delta_total{{kind="{kind}"}} 1' in rendered


# ---------------------------------------------------------------------- #
# plan-free route and admission errors
# ---------------------------------------------------------------------- #
class TestRoutesAndErrors:
    def test_plan_free_route_after_delta_bypasses_both_caches(self, rng):
        g = to_undirected_simple(erdos_renyi(32, 3, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=1 << 24)
        eng.register("G", g)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        eng.apply_delta("G", DeltaBatch(
            delete=[(int(rows[0]), int(g.indices[0]))]))
        req = Request(a="G", b="G", mask="G", phases=2,
                      semiring="plus_pair", plan_free=True)
        plans_before = len(eng.plans)
        resp = eng.submit(req)
        assert not resp.stats.planned and not resp.stats.result_cache_hit
        assert len(eng.plans) == plans_before       # no LRU pollution
        live, cold = oracle_pair(
            eng, Request(a="G", b="G", mask="G", phases=2,
                         semiring="plus_pair"))
        assert_bit_identical(resp.result, cold.result)
        assert_bit_identical(live.result, cold.result)

    def test_delta_on_mask_entry_raises(self, rng):
        eng = Engine()
        eng.register("M", Mask.from_matrix(
            csr_random(8, 8, density=0.3, rng=rng)))
        with pytest.raises(StoreError, match="CSR"):
            eng.apply_delta("M", DeltaBatch(delete=[(0, 0)]))

    def test_delta_on_unknown_key_raises(self):
        with pytest.raises(StoreError):
            Engine().apply_delta("nope", DeltaBatch(delete=[(0, 0)]))

    def test_noop_outcome_carries_fingerprints_and_version(self, rng):
        eng = Engine()
        eng.register("G", csr_random(8, 8, density=0.3, rng=rng))
        version = eng.store.version("G")
        out = eng.apply_delta("G", DeltaBatch())
        assert out.kind == "noop"
        assert out.pattern_fingerprint == eng.entry("G").fingerprint
        assert eng.store.version("G") == version    # no swap on a no-op


# ---------------------------------------------------------------------- #
# end-to-end: k-truss served via deltas
# ---------------------------------------------------------------------- #
class TestKTrussDelta:
    def test_matches_full_replan_bit_identically(self, rng):
        from repro.algorithms.ktruss import ktruss, ktruss_delta

        g = rmat(7, 6, rng=rng)
        full = ktruss(g, 5, phases=2)
        inc = ktruss_delta(g, 5)
        assert_bit_identical(inc.subgraph, full.subgraph)
        assert inc.iterations == full.iterations
        # every iteration after the first is served warm (spliced plan or
        # patched result)
        assert all(h >= 1 for h in inc.plan_hits_per_iteration[1:])

    def test_store_key_evicted_after_run(self, rng):
        from repro.algorithms.ktruss import ktruss_delta

        eng = Engine(result_cache_bytes=1 << 24)
        ktruss_delta(rmat(6, 4, rng=rng), 4, engine=eng)
        assert "ktruss:C" not in eng.store


# ---------------------------------------------------------------------- #
# one pass over the dirty rows: patched splices take the patch's sizes
# ---------------------------------------------------------------------- #
def _reference_ktruss(C: CSRMatrix, k: int) -> CSRMatrix:
    """k-truss fixpoint over the row-by-row reference tier."""
    from repro.core.reference import reference_masked_spgemm

    while True:
        S = reference_masked_spgemm(C, C, Mask.from_matrix(C),
                                    semiring=PLUS_PAIR)
        kept = ops.prune(S, tol=k - 2.5).pattern()
        if kept.nnz == C.nnz:
            return kept
        C = kept


def _record_symbolic(monkeypatch) -> list:
    """The rows of every ``spec.symbolic`` call made from now on."""
    calls = []
    real = registry.get_spec

    def recording_get_spec(key):
        spec = real(key)

        def symbolic(*args):
            calls.append(np.asarray(args[-1]).copy())
            return spec.symbolic(*args)

        return dataclasses.replace(spec, symbolic=symbolic)

    monkeypatch.setattr(registry, "get_spec", recording_get_spec)
    return calls


def _assert_spliced_matches_cold(eng, out, key="G"):
    """The plan re-keyed onto the post-delta fingerprint has a cold
    ``build_plan``'s row sizes on the post-delta operands."""
    new = rebuild_from_scratch(eng.entry(key).value)
    (spliced,) = [p for k, p in eng.plans.items()
                  if k[0] == out.pattern_fingerprint]
    cold = build_plan(new, new, Mask.from_matrix(new),
                      algorithm=spliced.algorithm, phases=2)
    assert np.array_equal(spliced.row_sizes, cold.row_sizes)
    return spliced


class TestOnePassSplice:
    @pytest.mark.parametrize("mode", ["auto", "off"])
    def test_ktruss_delta_spliced_plans_match_cold_every_iteration(
            self, rng, native_mode, mode):
        """Every iteration's patched splice carries exactly the row sizes a
        cold plan computes, and the subgraph matches ktruss() and the
        reference tier bit for bit, with the compiled tier on and off."""
        from repro import native
        from repro.algorithms.ktruss import ktruss, ktruss_delta

        native_mode(mode)
        g = to_undirected_simple(rmat(7, 6, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=1 << 24)
        real_apply = eng.apply_delta
        algorithms = []

        def checking_apply(key, batch):
            out = real_apply(key, batch)
            assert out.results_patched == 1
            algorithms.append(_assert_spliced_matches_cold(eng, out,
                                                           key).algorithm)
            return out

        eng.apply_delta = checking_apply
        inc = ktruss_delta(g, 5, engine=eng, prepared=True)
        assert len(algorithms) == inc.iterations - 1 >= 1
        native_on = mode == "auto" and native.native_available()
        assert ("msa-native" in algorithms) == native_on
        full = ktruss(g, 5, prepared=True, phases=2)
        assert_bit_identical(inc.subgraph, full.subgraph)
        assert_bit_identical(inc.subgraph, _reference_ktruss(g, 5))

    @pytest.mark.parametrize("case, sizes", [
        ("patched", "patch"), ("no-result-cache", "symbolic"),
        ("not-resident", "symbolic"), ("mixed", "symbolic")])
    def test_symbolic_runs_only_where_nothing_is_patched(
            self, rng, monkeypatch, case, sizes):
        """A splice that patches a resident result takes the patch block's
        sizes and runs no symbolic pass; without a result cache, with the
        result evicted, or on a mixed batch it runs the symbolic pass over
        the dirty rows. The delta.splice span names which one happened."""
        from repro.obs.trace import capture

        g = to_undirected_simple(rmat(6, 6, rng=rng)).pattern()
        eng = Engine(result_cache_bytes=(None if case == "no-result-cache"
                                         else 1 << 24))
        eng.register("G", g)
        req = Request(a="G", b="G", mask="G", phases=2, semiring="plus_pair")
        eng.submit(req)
        if case == "not-resident":
            eng.results.invalidate_fingerprints(
                {eng.entry("G").value_fingerprint})
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        edges = np.column_stack((rows, g.indices))
        pick = rng.choice(edges.shape[0], size=8, replace=False)
        batch = DeltaBatch(delete=edges[pick[1:]])
        if case == "mixed":
            r, c = edges[pick[0]]
            batch = DeltaBatch(delete=edges[pick[1:]],
                               update=[(int(r), int(c), 2.0)])
        calls = _record_symbolic(monkeypatch)
        with capture("delta") as rec:
            out = eng.apply_delta("G", batch)
        assert out.plans_spliced == 1
        assert out.results_patched == (1 if case == "patched" else 0)
        assert out.kind == ("mixed" if case == "mixed" else "pattern")
        (splice_span,) = [s for s in rec.spans if s.name == "delta.splice"]
        assert splice_span.attrs["sizes"] == sizes
        if sizes == "patch":
            assert calls == []
        else:
            assert [c.size for c in calls] == [splice_span.attrs["rows"]]
            assert calls[0].size > 0
        monkeypatch.undo()
        _assert_spliced_matches_cold(eng, out)
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result)

    def test_complemented_b_delta_keeps_rows_touching_fallback(
            self, rng, monkeypatch):
        """A B-slot delta under a complemented mask still takes the
        conservative rows_touching set, never the sharpened (skipping)
        B-side test."""
        import repro.service.engine as engine_mod

        n = 20
        eng = Engine(result_cache_bytes=1 << 24)
        A = csr_random(n, n, density=0.3, rng=rng, values="randint")
        B = csr_random(n, n, density=0.3, rng=rng, values="randint")
        eng.register("A", A)
        eng.register("B", B)
        eng.register("M", csr_random(n, n, density=0.3, rng=rng))
        req = Request(a="A", b="B", mask="M", complemented=True, phases=2,
                      semiring="plus_times")
        eng.submit(req)
        sharpened = []
        monkeypatch.setattr(engine_mod, "rows_affected_through",
                            lambda *a, **k: sharpened.append(1))
        rows = np.repeat(np.arange(n), B.row_nnz())
        out = eng.apply_delta("B", DeltaBatch(
            delete=[(int(rows[0]), int(B.indices[0]))]))
        assert sharpened == [] and out.plans_spliced == 1
        live, cold = oracle_pair(eng, req)
        assert_bit_identical(live.result, cold.result)
