"""Tests for the serving layer (repro.service): store, plan cache, engine,
concurrent serving, workload specs, and the algorithm integrations."""

import asyncio
import json

import numpy as np
import pytest

from conftest import assert_masked_product_correct, make_triple
from repro import Mask, masked_spgemm
from repro.core.plan import build_plan
from repro.errors import AlgorithmError
from repro.parallel import SimulatedExecutor
from repro.semiring import PLUS_PAIR
from repro.service import (
    AsyncServer,
    Engine,
    MatrixStore,
    PlanCache,
    Request,
    StoreError,
    expand_requests,
    load_workload,
    register_matrices,
    render_serve_report,
    serve_all,
)
from repro.service.store import matrix_nbytes
from repro.sparse import csr_random
from repro.sparse.csr import CSRMatrix


# ---------------------------------------------------------------------- #
# MatrixStore
# ---------------------------------------------------------------------- #
def test_store_register_get_evict(rng):
    store = MatrixStore()
    a = csr_random(10, 10, density=0.3, rng=rng)
    store.register("a", a)
    assert "a" in store and store.get("a") is a
    assert store.total_bytes == matrix_nbytes(a)
    assert store.evict("a") and "a" not in store
    assert not store.evict("a")  # double-evict is a no-op


def test_store_unknown_key_lists_known(rng):
    store = MatrixStore()
    store.register("present", csr_random(5, 5, density=0.2, rng=rng))
    with pytest.raises(StoreError, match="present"):
        store.get("absent")


def test_store_rejects_non_matrix():
    with pytest.raises(StoreError, match="CSRMatrix or Mask"):
        MatrixStore().register("x", np.eye(3))


def test_store_lru_eviction_under_budget():
    from repro.sparse import csr_eye

    mats = [csr_eye(20) for _ in range(3)]  # equal-size entries
    budget = sum(matrix_nbytes(m) for m in mats[:2]) + 8
    store = MatrixStore(budget_bytes=budget)
    store.register("m0", mats[0])
    store.register("m1", mats[1])
    store.get("m0")  # m0 is now MRU; m1 is the LRU victim
    store.register("m2", mats[2])
    assert store.keys() == ["m0", "m2"]
    assert store.evictions == 1
    assert store.total_bytes <= budget


def test_store_pinned_entries_survive():
    from repro.sparse import csr_eye

    mats = [csr_eye(20) for _ in range(3)]
    budget = sum(matrix_nbytes(m) for m in mats[:2]) + 8
    store = MatrixStore(budget_bytes=budget)
    store.register("pinned", mats[0], pin=True)
    store.register("m1", mats[1])
    store.register("m2", mats[2])  # must evict m1, not the pinned entry
    assert "pinned" in store and "m2" in store and "m1" not in store


def test_store_unsatisfiable_budget_leaves_store_untouched(rng):
    """An infeasible registration must be rejected atomically: no eviction
    of innocent entries, no resident oversized entry, replaced entry kept."""
    from repro.sparse import csr_eye

    small = csr_eye(5)
    store = MatrixStore(budget_bytes=matrix_nbytes(small) + 8)
    store.register("ok", small)
    big = csr_random(30, 30, density=0.5, rng=rng)
    with pytest.raises(StoreError, match="exceed"):
        store.register("big", big)
    assert store.keys() == ["ok"] and store.evictions == 0
    with pytest.raises(StoreError, match="exceed"):
        store.register("ok", big)  # replacement path: old entry restored
    assert store.get("ok") is small


def test_store_fingerprint_memoized_and_reset(rng):
    store = MatrixStore()
    a = csr_random(10, 10, density=0.3, rng=rng)
    store.register("a", a)
    fp1 = store.entry("a").fingerprint
    assert store.entry("a").fingerprint is fp1  # cached, not recomputed
    store.register("a", a.pattern(2.0))         # same pattern, new values
    assert store.entry("a").fingerprint == fp1
    store.register("a", csr_random(10, 10, density=0.3,
                                   rng=np.random.default_rng(99)))
    assert store.entry("a").fingerprint != fp1


# ---------------------------------------------------------------------- #
# PlanCache
# ---------------------------------------------------------------------- #
def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    for i in range(3):
        assert cache.get(("k", i)) is None
    cache.put(("k", 0), "p0")
    cache.put(("k", 1), "p1")
    assert cache.get(("k", 0)) == "p0"   # 0 now MRU
    cache.put(("k", 2), "p2")            # evicts 1
    assert ("k", 1) not in cache and ("k", 0) in cache
    assert cache.evictions == 1
    assert cache.hits == 1 and cache.misses == 3
    assert cache.hit_rate == 0.25


# ---------------------------------------------------------------------- #
# Engine: cache semantics + correctness
# ---------------------------------------------------------------------- #
@pytest.fixture
def engine_triple(rng):
    A, B, M = make_triple(rng)
    eng = Engine()
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def test_engine_results_match_direct_call(engine_triple):
    eng, (A, B, M) = engine_triple
    for phases in (1, 2):
        resp = eng.submit(Request(a="A", b="B", mask="M", phases=phases))
        assert_masked_product_correct(resp.result, A, B, M)
        want = masked_spgemm(A, B, Mask.from_matrix(M),
                             algorithm=resp.stats.algorithm, phases=phases)
        assert resp.result.equals(want)


def test_engine_cold_then_warm(engine_triple):
    eng, _ = engine_triple
    req = Request(a="A", b="B", mask="M", phases=2)
    cold = eng.submit(req)
    warm = eng.submit(req)
    assert not cold.stats.plan_cache_hit and cold.stats.plan_seconds > 0
    assert warm.stats.plan_cache_hit and warm.stats.plan_reused
    assert warm.stats.symbolic_skipped and warm.stats.plan_seconds == 0
    assert warm.result.equals(cold.result)
    assert eng.stats.plan_hits == 1 and eng.stats.plan_misses == 1
    assert eng.stats.plan_hit_rate == 0.5


def test_engine_warm_request_skips_symbolic_pass(engine_triple, monkeypatch):
    """Warm two-phase requests must not rebuild the plan (no auto-select, no
    symbolic kernel run)."""
    import repro.service.engine as engine_mod

    eng, _ = engine_triple
    calls = []
    real_build = engine_mod.build_plan

    def counting_build(*args, **kwargs):
        calls.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "build_plan", counting_build)
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    eng.submit(req)
    eng.submit(req)
    assert len(calls) == 1


def test_engine_value_update_still_hits(engine_triple, rng):
    """Re-registering a matrix with new values but the same pattern must keep
    hitting the cached plan (the symbolic phase is pattern-only)."""
    eng, (A, B, M) = engine_triple
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    A2 = CSRMatrix(A.indptr.copy(), A.indices.copy(),
                   A.data * 0.5 + 2.0, A.shape, check=False)
    eng.register("A", A2)
    warm = eng.submit(req)
    assert warm.stats.plan_cache_hit
    assert_masked_product_correct(warm.result, A2, B, M)


def test_engine_pattern_change_misses(engine_triple, rng):
    eng, (A, B, M) = engine_triple
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    A2 = csr_random(A.nrows, A.ncols, density=0.15,
                    rng=np.random.default_rng(1234))
    eng.register("A", A2)
    resp = eng.submit(req)
    assert not resp.stats.plan_cache_hit
    assert_masked_product_correct(resp.result, A2, B, M)


def test_engine_distinct_configs_get_distinct_plans(engine_triple):
    eng, _ = engine_triple
    base = dict(a="A", b="B", mask="M")
    eng.submit(Request(**base, phases=2))
    for variant in (Request(**base, phases=1),
                    Request(**base, phases=2, algorithm="hash"),
                    Request(**base, phases=2, semiring="plus_pair"),
                    Request(a="A", b="B", phases=2),          # no mask
                    Request(**base, phases=2, complemented=True)):
        resp = eng.submit(variant)
        assert not resp.stats.plan_cache_hit, variant


def test_engine_auto_resolution_cached(engine_triple):
    eng, (A, B, M) = engine_triple
    cold = eng.submit(Request(a="A", b="B", mask="M", algorithm="auto"))
    warm = eng.submit(Request(a="A", b="B", mask="M", algorithm="auto"))
    assert warm.stats.plan_cache_hit
    assert cold.stats.algorithm == warm.stats.algorithm != "auto"


def test_engine_complemented_mask_correct(engine_triple):
    eng, (A, B, M) = engine_triple
    resp = eng.submit(Request(a="A", b="B", mask="M", complemented=True,
                              algorithm="msa", phases=2))
    assert_masked_product_correct(resp.result, A, B, M, complemented=True)


def test_engine_baseline_bypasses_plan_cache(engine_triple):
    eng, (A, B, M) = engine_triple
    r1 = eng.submit(Request(a="A", b="B", mask="M", algorithm="saxpy",
                            phases=1))
    r2 = eng.submit(Request(a="A", b="B", mask="M", algorithm="saxpy",
                            phases=1))
    assert not r1.stats.planned and not r2.stats.planned
    assert not r1.stats.plan_cache_hit and not r2.stats.plan_cache_hit
    assert len(eng.plans) == 0
    assert_masked_product_correct(r2.result, A, B, M)
    # baselines never warm, so they must not skew hit/miss or latency stats
    assert eng.stats.unplanned == 2
    assert eng.stats.plan_hits == eng.stats.plan_misses == 0
    assert not eng.stats.cold_latencies and not eng.stats.warm_latencies


def test_engine_rejects_mask_as_operand(rng):
    eng = Engine()
    eng.register("m", Mask.from_matrix(csr_random(5, 5, density=0.3, rng=rng)))
    eng.register("a", csr_random(5, 5, density=0.3, rng=rng))
    with pytest.raises(StoreError, match="mask slot"):
        eng.submit(Request(a="m", b="a"))


def test_engine_multiply_adhoc_operands(rng):
    A, B, M = make_triple(rng)
    eng = Engine()
    cold = eng.multiply(A, B, M, phases=2)
    warm = eng.multiply(A.copy(), B.copy(), M.copy(), phases=2)  # new objects
    assert not cold.stats.plan_cache_hit and warm.stats.plan_cache_hit
    assert warm.result.equals(cold.result)
    assert_masked_product_correct(warm.result, A, B, M)


def test_engine_with_row_parallel_executor(rng):
    A, B, M = make_triple(rng, m=60, k=50, n=55)
    ex = SimulatedExecutor(nworkers=4)
    eng = Engine(executor=ex)
    cold = eng.multiply(A, B, M, phases=2, algorithm="hash")
    warm = eng.multiply(A, B, M, phases=2, algorithm="hash")
    assert warm.stats.plan_cache_hit
    assert_masked_product_correct(warm.result, A, B, M)
    serial = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="hash",
                           phases=2)
    assert warm.result.equals(serial)


# ---------------------------------------------------------------------- #
# plan= fast path on the core API
# ---------------------------------------------------------------------- #
def test_masked_spgemm_plan_fast_path(rng):
    A, B, M = make_triple(rng)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm="auto", phases=2)
    assert plan.algorithm != "auto" and plan.nnz is not None
    got = masked_spgemm(A, B, mask, phases=2, plan=plan)
    want = masked_spgemm(A, B, mask, algorithm=plan.algorithm, phases=2)
    assert got.equals(want)
    assert plan.nnz == got.nnz


def test_masked_spgemm_plan_algorithm_conflict(rng):
    A, B, M = make_triple(rng)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm="msa", phases=2)
    with pytest.raises(AlgorithmError, match="built for algorithm"):
        masked_spgemm(A, B, mask, algorithm="hash", phases=2, plan=plan)


def test_masked_spgemm_stale_plan_detected(rng):
    """A plan replayed against operands whose pattern changed must fail the
    symbolic cross-check, not silently return wrong output."""
    A, B, M = make_triple(rng)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm="msa", phases=2)
    A2 = csr_random(A.nrows, A.ncols, density=0.3,
                    rng=np.random.default_rng(5))
    with pytest.raises(AlgorithmError, match="stale plan"):
        masked_spgemm(A2, B, mask, phases=2, plan=plan)


def test_masked_spgemm_stale_plan_detected_parallel(rng):
    """The executor path must cross-check plan row sizes too."""
    A, B, M = make_triple(rng)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm="msa", phases=2)
    A2 = csr_random(A.nrows, A.ncols, density=0.3,
                    rng=np.random.default_rng(5))
    with pytest.raises(AlgorithmError, match="stale plan"):
        masked_spgemm(A2, B, mask, phases=2, plan=plan,
                      executor=SimulatedExecutor(nworkers=2))


def test_plan_shape_mismatch_rejected(rng):
    A, B, M = make_triple(rng)
    plan = build_plan(A, B, Mask.from_matrix(M), phases=2)
    A_small = csr_random(A.nrows - 1, A.ncols, density=0.2, rng=rng)
    M_small = csr_random(A.nrows - 1, B.ncols, density=0.2, rng=rng)
    with pytest.raises(AlgorithmError, match="shape"):
        masked_spgemm(A_small, B, Mask.from_matrix(M_small), phases=2,
                      plan=plan)


# ---------------------------------------------------------------------- #
# concurrent serving over one engine
# ---------------------------------------------------------------------- #
def _serving_engine(rng):
    eng = Engine()
    A, B, M = make_triple(rng, m=25, k=20, n=25)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def _serve(eng, reqs, workers):
    async def main():
        async with AsyncServer(eng, workers=workers, dedup=False) as srv:
            return await serve_all(srv, reqs), srv

    return asyncio.run(main())


@pytest.mark.parametrize("workers", [1, 4])
def test_serve_all_workers_match_serial(workers):
    """Requests served by 1 or 4 workers come back in input order and
    bit-identical to serial ``Engine.submit`` on a second engine."""
    eng_serial, _ = _serving_engine(np.random.default_rng(7))
    eng_served, _ = _serving_engine(np.random.default_rng(7))
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i),
                    algorithm=("msa", "hash")[i % 2])
            for i in range(8)]
    serial = [eng_serial.submit(r) for r in reqs]
    served, _ = _serve(eng_served, reqs, workers)
    assert [r.tag for r in served] == [str(i) for i in range(8)]
    for rs, rw in zip(serial, served):
        assert rw.result.same_pattern(rs.result)
        assert np.array_equal(rw.result.data, rs.result.data)
    # two plan keys: one miss each when serial; racing workers may both
    # miss the same cold key, so only the total is fixed
    plans = eng_served.stats.plan_hits + eng_served.stats.plan_misses
    assert plans == 8 and len(eng_served.plans) == 2
    if workers == 1:
        assert eng_served.stats.plan_misses == 2


# ---------------------------------------------------------------------- #
# algorithm integration: k-truss and MCL through the engine
# ---------------------------------------------------------------------- #
def test_ktruss_replay_reuses_plan_every_iteration():
    """A k-truss run served twice from one engine: the second run's pattern
    sequence is identical, so every iteration after the first (cold) run
    reuses a cached plan — ≥1 plan hit per iteration."""
    from repro.algorithms import ktruss
    from repro.graphs import erdos_renyi

    g = erdos_renyi(150, 10, rng=7, symmetrize=True)
    eng = Engine()
    first = ktruss(g, 4, engine=eng, phases=2)
    assert first.iterations > 1
    assert first.plan_hits == 0  # cold engine: every pattern is new
    second = ktruss(g, 4, engine=eng, phases=2)
    assert second.iterations == first.iterations
    assert second.subgraph.same_pattern(first.subgraph)
    assert len(second.plan_hits_per_iteration) == second.iterations
    assert all(h >= 1 for h in second.plan_hits_per_iteration)
    assert eng.stats.plan_hits >= second.iterations


def test_ktruss_engine_matches_engineless_result():
    from repro.algorithms import ktruss
    from repro.graphs import erdos_renyi

    g = erdos_renyi(100, 8, rng=3, symmetrize=True)
    eng = Engine()
    with_engine = ktruss(g, 4, engine=eng, algorithm="hash", phases=2)
    default = ktruss(g, 4, algorithm="hash")
    assert with_engine.subgraph.same_pattern(default.subgraph)
    assert with_engine.iterations == default.iterations


def test_mcl_engine_hits_on_stabilized_pattern():
    """MCL's support stabilizes before its values converge; once it does,
    every expansion product is a plan-cache hit (same pattern, new values)."""
    from repro.algorithms import markov_clustering
    from repro.graphs import erdos_renyi

    g = erdos_renyi(150, 6, rng=3, symmetrize=True)
    eng = Engine()
    res = markov_clustering(g, engine=eng, inflation=1.5)
    assert res.plan_hits > 0
    assert eng.stats.plan_hits == res.plan_hits
    # clustering itself must be unchanged by the engine routing
    plain = markov_clustering(g, inflation=1.5)
    assert np.array_equal(res.labels, plain.labels)
    assert res.n_clusters == plain.n_clusters


# ---------------------------------------------------------------------- #
# workload specs
# ---------------------------------------------------------------------- #
def _workload_spec():
    return {
        "matrices": {
            "G": {"generator": "er", "n": 60, "degree": 6, "seed": 0,
                  "prep": "pattern"},
            "M": {"random": {"m": 60, "k": 60, "density": 0.1, "seed": 2}},
        },
        "requests": [
            {"a": "G", "b": "G", "mask": "M", "phases": 2, "repeat": 3,
             "tag": "masked"},
            {"a": "G", "b": "G", "mask": "G", "algorithm": "hash",
             "semiring": "plus_pair", "phases": 2, "repeat": 2, "tag": "tc"},
        ],
    }


def test_expand_requests_repeats_in_order():
    reqs = expand_requests(_workload_spec())
    assert [r.tag for r in reqs] == ["masked"] * 3 + ["tc"] * 2


@pytest.mark.parametrize("workers", [1, 4])
def test_workload_serve_and_report(tmp_path, workers):
    p = tmp_path / "wl.json"
    p.write_text(json.dumps(_workload_spec()))
    spec = load_workload(p)
    engine = Engine()
    register_matrices(engine, spec)
    reqs = expand_requests(spec)
    resps, srv = _serve(engine, reqs, workers)
    assert [r.tag for r in resps] == ["masked"] * 3 + ["tc"] * 2
    for r in resps[1:3]:
        assert r.result.equals(resps[0].result)
    assert resps[4].result.equals(resps[3].result)
    assert engine.stats.plan_hits + engine.stats.plan_misses == 5
    if workers == 1:
        assert engine.stats.plan_misses == 2 and engine.stats.plan_hits == 3
    report = render_serve_report(engine, srv, resps, 1.0)
    assert "cache tiers:" in report and "5 worker executions" in report


def test_engine_shape_mismatch_clean_error(rng):
    """Mismatched operand shapes must surface as a ShapeError from plan
    building, not an IndexError from inside a kernel."""
    from repro.errors import ShapeError

    eng = Engine()
    A = csr_random(5, 4, density=0.5, rng=rng)
    B = csr_random(3, 6, density=0.5, rng=rng)
    with pytest.raises(ShapeError):
        eng.multiply(A, B, phases=2)


def test_engine_complemented_without_mask_rejected(rng):
    """¬(no mask) selects nothing — a forgotten mask key, not a request."""
    eng = Engine()
    A = csr_random(5, 5, density=0.5, rng=rng)
    with pytest.raises(AlgorithmError, match="without a mask"):
        eng.multiply(A, A, None, complemented=True)


def test_workload_rejects_misspelled_matrix_field():
    from repro.service.workload import _build_matrix

    with pytest.raises(ValueError, match="densty"):
        _build_matrix("x", {"random": {"m": 10, "densty": 0.5}})
    with pytest.raises(ValueError, match="degre"):
        _build_matrix("x", {"generator": "er", "n": 10, "degre": 20})


def test_mcl_algorithm_without_engine_rejected():
    from repro.algorithms import markov_clustering
    from repro.graphs import erdos_renyi

    g = erdos_renyi(30, 4, rng=0, symmetrize=True)
    with pytest.raises(ValueError, match="requires engine="):
        markov_clustering(g, algorithm="hash")


def test_workload_rejects_unknown_request_field():
    with pytest.raises(ValueError, match="unknown request fields"):
        Request.from_dict({"a": "A", "b": "B", "masc": "M"})


def test_workload_rejects_bad_matrix_spec():
    from repro.service.workload import _build_matrix

    with pytest.raises(ValueError, match="path/random/generator"):
        _build_matrix("x", {"nonsense": 1})
    with pytest.raises(ValueError, match="unknown prep"):
        _build_matrix("x", {"generator": "er", "n": 10, "prep": "bogus"})
    with pytest.raises(ValueError, match="missing required field"):
        _build_matrix("x", {"random": {"density": 0.1}})  # no "m"
    with pytest.raises(ValueError, match="file not found"):
        _build_matrix("x", {"path": "does-not-exist.mtx"})
