"""Tests for the async serving front end, the result-cache tier, and plan
persistence (repro.service.server / result_cache / PlanStore)."""

import asyncio
import json

import numpy as np
import pytest

from conftest import assert_masked_product_correct, make_triple
from repro.core.plan import SymbolicPlan, build_plan
from repro.errors import ShapeError
from repro.mask import Mask
from repro.service import (
    AsyncServer,
    Engine,
    PlanStore,
    PlanStoreError,
    Request,
    ResultCache,
    ServerClosed,
    ServerError,
    serve_all,
)
from repro.service.result_cache import result_key
from repro.service.store import matrix_nbytes
from repro.sparse import csr_random, value_fingerprint
from repro.sparse.csr import CSRMatrix


# ---------------------------------------------------------------------- #
# value fingerprints
# ---------------------------------------------------------------------- #
def test_value_fingerprint_tracks_values_only(rng):
    a = csr_random(20, 20, density=0.2, rng=rng)
    same = value_fingerprint(a.data.copy())
    assert value_fingerprint(a.data) == same
    bumped = a.data.copy()
    bumped[0] += 1.0
    assert value_fingerprint(bumped) != same


def test_store_entry_value_fingerprint_memoized_and_reset(rng):
    eng = Engine()
    a = csr_random(12, 12, density=0.3, rng=rng)
    eng.register("a", a)
    vfp = eng.store.entry("a").value_fingerprint
    assert eng.store.entry("a").value_fingerprint is vfp  # memoized
    eng.register("a", a.pattern(3.0))  # same pattern, new values
    assert eng.store.entry("a").fingerprint  # pattern fp unchanged semantics
    assert eng.store.entry("a").value_fingerprint != vfp


# ---------------------------------------------------------------------- #
# ResultCache unit behavior
# ---------------------------------------------------------------------- #
def _result_for(nnz_seed, n=16):
    return csr_random(n, n, density=0.3, rng=np.random.default_rng(nnz_seed))


def test_result_cache_byte_lru_eviction():
    mats = [_result_for(i) for i in range(3)]
    budget = sum(matrix_nbytes(m) for m in mats[:2])
    cache = ResultCache(budget_bytes=budget)
    cache.put(("k0",), mats[0], "msa")
    cache.put(("k1",), mats[1], "msa")
    assert cache.get(("k0",)).matrix is mats[0]  # k0 now MRU
    cache.put(("k2",), mats[2], "msa")           # evicts k1 (LRU)
    assert ("k1",) not in cache and ("k0",) in cache and ("k2",) in cache
    assert cache.evictions >= 1
    assert cache.total_bytes <= budget


def test_result_cache_oversize_not_admitted():
    small, big = _result_for(0, n=6), _result_for(1, n=64)
    cache = ResultCache(budget_bytes=matrix_nbytes(small) + 8)
    assert cache.put(("s",), small, "msa")
    assert not cache.put(("b",), big, "msa")
    assert ("b",) not in cache and ("s",) in cache  # innocents survive
    assert cache.oversize_rejects == 1


def test_result_cache_replace_same_key_reaccounts():
    cache = ResultCache(budget_bytes=1 << 20)
    a, b = _result_for(0), _result_for(1)
    cache.put(("k",), a, "msa")
    cache.put(("k",), b, "msa")
    assert len(cache) == 1
    assert cache.total_bytes == matrix_nbytes(b)


def test_result_cache_rejects_bad_budget():
    with pytest.raises(ValueError, match="positive"):
        ResultCache(budget_bytes=0)
    with pytest.raises(ValueError, match="min_flops_per_byte"):
        ResultCache(min_flops_per_byte=-1.0)


def test_result_cache_admission_policy_accounting():
    """Cost-aware admission: results saving fewer flops per byte than the
    threshold are rejected (counted separately from oversize rejects) so
    huge low-reuse results cannot evict hot small ones."""
    cache = ResultCache(budget_bytes=1 << 20, min_flops_per_byte=10.0)
    hot = _result_for(0, n=8)
    cold = _result_for(1, n=8)
    nbytes = matrix_nbytes(cold)
    assert cache.put(("hot",), hot, "msa", flops=100 * nbytes)   # 100 f/B
    assert not cache.put(("cold",), cold, "msa", flops=nbytes)   # 1 f/B
    assert cache.policy_rejects == 1 and cache.oversize_rejects == 0
    assert ("hot",) in cache and ("cold",) not in cache
    # exactly at the threshold admits (the rule is "fewer than")
    assert cache.put(("edge",), cold, "msa", flops=10 * nbytes)
    # no flops estimate -> policy bypassed, budget-only admission
    assert cache.put(("unknown",), _result_for(2, n=8), "msa")
    assert cache.policy_rejects == 1


def test_result_cache_policy_off_by_default():
    cache = ResultCache(budget_bytes=1 << 20)
    assert cache.put(("k",), _result_for(0), "msa", flops=0)
    assert cache.policy_rejects == 0


def test_engine_admission_threshold_knob(rng):
    """Engine(result_admit_flops_per_byte=...) rejects cheap-to-recompute
    results but keeps serving correct responses (a reject is not an error,
    just a future miss)."""
    A = csr_random(40, 40, density=0.1, rng=rng)
    M = csr_random(40, 40, density=0.2, rng=rng)
    # absurdly high threshold: nothing is worth caching
    engine = Engine(result_cache_bytes=64 << 20,
                    result_admit_flops_per_byte=1e9)
    engine.register("A", A)
    engine.register("M", M)
    req = Request(a="A", b="A", mask="M", phases=2)
    r1 = engine.submit(req)
    r2 = engine.submit(req)
    assert engine.results.policy_rejects == 2
    assert not r2.stats.result_cache_hit        # nothing was admitted
    assert r2.stats.plan_cache_hit              # plan tier still warm
    assert r2.result.equals(r1.result)
    # threshold 0 (default): same request stream serves from the cache
    engine0 = Engine(result_cache_bytes=64 << 20)
    engine0.register("A", A)
    engine0.register("M", M)
    engine0.submit(req)
    assert engine0.submit(req).stats.result_cache_hit


# ---------------------------------------------------------------------- #
# Engine × result cache
# ---------------------------------------------------------------------- #
@pytest.fixture
def cached_engine(rng):
    A, B, M = make_triple(rng)
    eng = Engine(result_cache_bytes=32 << 20)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def test_engine_result_cache_hit_is_bit_identical(cached_engine):
    eng, (A, B, M) = cached_engine
    req = Request(a="A", b="B", mask="M", phases=2)
    cold = eng.submit(req)
    hit = eng.submit(req)
    assert not cold.stats.result_cache_hit
    assert hit.stats.result_cache_hit and not hit.stats.plan_cache_hit
    # bit-identical: the very same CSR object comes back
    assert hit.result is cold.result
    assert hit.stats.algorithm == cold.stats.algorithm != "auto"
    assert eng.stats.result_hits == 1
    # result hits stay out of the plan hit/miss accounting
    assert eng.stats.plan_hits == 0 and eng.stats.plan_misses == 1
    assert len(eng.stats.result_latencies) == 1


def test_engine_value_change_invalidates_result_not_plan(cached_engine):
    """New values under the same pattern: the result tier must miss (values
    key it) while the plan tier keeps hitting (patterns key it)."""
    eng, (A, B, M) = cached_engine
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    A2 = A.pattern(0.5)  # same pattern, different values
    eng.register("A", A2)
    resp = eng.submit(req)
    assert not resp.stats.result_cache_hit
    assert resp.stats.plan_cache_hit
    assert_masked_product_correct(resp.result, A2, B, M)
    # and the old entry is still there: re-registering the original values
    # brings back result hits without recomputation
    eng.register("A", A)
    assert eng.submit(req).stats.result_cache_hit


def test_engine_distinct_configs_distinct_result_entries(cached_engine):
    eng, _ = cached_engine
    base = dict(a="A", b="B", mask="M")
    eng.submit(Request(**base, phases=2))
    for variant in (Request(**base, phases=1),
                    Request(**base, phases=2, algorithm="hash"),
                    Request(**base, phases=2, semiring="plus_pair")):
        assert not eng.submit(variant).stats.result_cache_hit, variant


def test_engine_without_result_cache_never_reports_hits(rng):
    A, B, M = make_triple(rng)
    eng = Engine()  # default: no result tier
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    warm = eng.submit(req)
    assert eng.results is None
    assert not warm.stats.result_cache_hit and warm.stats.plan_cache_hit


def test_engine_multiply_bypasses_result_cache(cached_engine):
    """Ad-hoc operands are not value-hashed (iterative traffic changes
    values every call); only store-keyed requests use the result tier."""
    eng, (A, B, M) = cached_engine
    eng.multiply(A, B, M, phases=2)
    resp = eng.multiply(A, B, M, phases=2)
    assert not resp.stats.result_cache_hit and resp.stats.plan_cache_hit
    assert len(eng.results) == 0


# ---------------------------------------------------------------------- #
# plan persistence
# ---------------------------------------------------------------------- #
def test_symbolic_plan_record_roundtrip(rng):
    A, B, M = make_triple(rng)
    plan = build_plan(A, B, Mask.from_matrix(M), algorithm="auto", phases=2)
    meta, rows = plan.to_record()
    back = SymbolicPlan.from_record(json.loads(json.dumps(meta)), rows)
    assert back.algorithm == plan.algorithm and back.phases == 2
    assert back.shape == plan.shape
    assert np.array_equal(back.row_sizes, plan.row_sizes)


def test_symbolic_plan_record_rejects_missing_rows():
    from repro.errors import AlgorithmError

    meta = {"algorithm": "msa", "phases": 2, "shape": [4, 4]}
    with pytest.raises(AlgorithmError, match="row"):
        SymbolicPlan.from_record(meta, None)


def test_plan_store_roundtrip_preserves_keys_and_sizes(tmp_path, rng):
    A, B, M = make_triple(rng)
    eng = Engine()
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    eng.submit(Request(a="A", b="B", mask="M", phases=2))
    eng.submit(Request(a="A", b="B", mask="M", phases=1, algorithm="hash"))
    path = tmp_path / "plans.npz"
    assert eng.save_plans(path) == 2
    loaded = dict(PlanStore(path).load())
    assert set(loaded) == set(k for k, _ in eng.plans.items())
    for key, plan in eng.plans.items():
        got = loaded[key]
        assert got.algorithm == plan.algorithm
        assert got.phases == plan.phases and got.shape == plan.shape
        if plan.row_sizes is None:
            assert got.row_sizes is None
        else:
            assert np.array_equal(got.row_sizes, plan.row_sizes)


def test_plan_store_missing_and_corrupt(tmp_path):
    with pytest.raises(PlanStoreError, match="no plan store"):
        PlanStore(tmp_path / "absent.npz").load()
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a zipfile")
    with pytest.raises(PlanStoreError, match="corrupt"):
        PlanStore(bad).load()


def test_plan_store_truncated_file_is_cold_start_not_crash(tmp_path, rng):
    """A save killed mid-write (valid zip prefix, truncated tail) must
    surface as PlanStoreError — the CLI's cold-start path — not BadZipFile.
    And a failed re-save must not destroy an existing good store."""
    A, B, M = make_triple(rng)
    eng = Engine()
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    eng.submit(Request(a="A", b="B", mask="M", phases=2))
    path = tmp_path / "plans.npz"
    eng.save_plans(path)
    intact = path.read_bytes()
    path.write_bytes(intact[: len(intact) // 2])  # simulate the kill
    with pytest.raises(PlanStoreError, match="corrupt"):
        PlanStore(path).load()
    # atomic save: writing again fully replaces the truncated file
    eng.save_plans(path)
    assert len(PlanStore(path).load()) == 1
    assert not path.with_name(path.name + ".tmp").exists()


def test_plan_store_schema_mismatch(tmp_path):
    import numpy as np

    path = tmp_path / "other.npz"
    doc = json.dumps({"schema": "something-else", "plans": []})
    with open(path, "wb") as f:
        np.savez(f, manifest=np.frombuffer(doc.encode(), dtype=np.uint8))
    with pytest.raises(PlanStoreError, match="schema"):
        PlanStore(path).load()


def test_engine_restart_serves_warm_with_zero_symbolic_work(
        tmp_path, rng, monkeypatch):
    """The ISSUE acceptance behavior: persist plans, kill the engine,
    restore into a fresh one, and every repeated-mask request must hit the
    restored plan — build_plan never runs, no row sizes are recomputed."""
    import repro.service.engine as engine_mod

    A, B, M = make_triple(rng)
    eng = Engine()
    for key, val in (("A", A), ("B", B), ("M", M)):
        eng.register(key, val)
    reqs = [Request(a="A", b="B", mask="M", phases=2),
            Request(a="A", b="B", mask="M", phases=2, algorithm="msa"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="hash")]
    cold = [eng.submit(r) for r in reqs]
    path = tmp_path / "plans.npz"
    saved = eng.save_plans(path)
    assert saved == len(reqs)
    del eng  # the restart: nothing in-memory survives

    restarted = Engine()
    for key, val in (("A", A), ("B", B), ("M", M)):
        restarted.register(key, val)
    assert restarted.load_plans(path) == saved

    calls = []
    monkeypatch.setattr(engine_mod, "build_plan",
                        lambda *a, **k: calls.append(1))
    for req, cold_resp in zip(reqs, cold):
        warm = restarted.submit(req)
        assert warm.stats.plan_cache_hit and warm.stats.symbolic_skipped
        assert warm.stats.plan_seconds == 0
        assert warm.result.equals(cold_resp.result)  # bit-identical replay
    assert calls == []  # zero symbolic passes, zero recomputed row sizes
    assert restarted.stats.plan_hits == len(reqs)
    assert restarted.stats.plan_misses == 0


def test_load_plans_respects_cache_capacity(tmp_path, rng):
    """Restoring more plans than the cache holds must evict, not overflow."""
    eng = Engine()
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    for alg in ("msa", "hash", "heap"):
        eng.submit(Request(a="A", b="B", mask="M", phases=2, algorithm=alg))
    path = tmp_path / "plans.npz"
    eng.save_plans(path)
    small = Engine(plan_capacity=2)
    assert small.load_plans(path) == 3
    assert len(small.plans) == 2


# ---------------------------------------------------------------------- #
# AsyncServer
# ---------------------------------------------------------------------- #
def _server_engine(rng, **engine_kw):
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng = Engine(**engine_kw)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def test_async_serve_preserves_order_and_results(rng):
    eng, (A, B, M) = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(12)]

    async def main():
        async with AsyncServer(eng, workers=3) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert [r.tag for r in resps] == [str(i) for i in range(12)]
    for r in resps:
        assert_masked_product_correct(r.result, A, B, M)
    # identical in-flight requests coalesce (dedup is on by default): every
    # request is answered, and executed + coalesced covers all twelve
    assert srv.stats.completed + srv.stats.coalesced == 12
    assert srv.stats.failed == 0
    assert srv.stats.batches <= 12
    assert all(r.stats.queued_seconds >= 0 for r in resps)


def test_async_server_backpressure_bounds_inflight(rng):
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(10)]

    async def main():
        async with AsyncServer(eng, workers=1, max_inflight=2,
                               dedup=False) as srv:
            await serve_all(srv, reqs)
            return srv

    srv = asyncio.run(main())
    assert srv.stats.completed == 10
    assert srv.stats.max_inflight_seen <= 2
    assert srv.stats.max_queue_depth <= 2


def test_async_server_flops_bound_still_completes(rng):
    """A queued-flops budget smaller than one request must degrade to
    serial draining, never deadlock."""
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2) for _ in range(5)]

    async def main():
        async with AsyncServer(eng, workers=2, max_queued_flops=1,
                               dedup=False) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert srv.stats.completed == 5 and len(resps) == 5


def test_async_server_error_attributed_to_failing_request(rng):
    """Bad requests fail alone — at admission for shape mismatches (the
    flops estimator validates early), in the worker for execution errors —
    and their stream-mates still complete."""
    from repro.errors import AlgorithmError

    eng, _ = _server_engine(rng)
    bad = csr_random(7, 9, density=0.4, rng=np.random.default_rng(3))
    eng.register("Bad", bad)  # 7x9 against B(25x30): shape mismatch
    good = [Request(a="A", b="B", mask="M", phases=2, tag="good")
            for _ in range(3)]
    reqs = (good[:1]
            + [Request(a="Bad", b="B", phases=2, tag="bad-shape")]
            + good[1:2]
            # no mask + complemented: passes admission, raises in the worker
            + [Request(a="A", b="B", complemented=True, tag="bad-exec")]
            + good[2:])

    async def main():
        async with AsyncServer(eng, workers=1, dedup=False) as srv:
            return await asyncio.gather(
                *[srv.submit(r) for r in reqs], return_exceptions=True)

    results = asyncio.run(main())
    assert isinstance(results[1], ShapeError)      # admission-time
    assert isinstance(results[3], AlgorithmError)  # worker-time
    ok = [r for i, r in enumerate(results) if i not in (1, 3)]
    assert all(not isinstance(r, Exception) for r in ok)
    for r in ok:
        assert r.tag == "good"
    # exactly-once execution: a failure must not re-run the requests that
    # had already completed (stats would double-count)
    assert eng.stats.requests == len(ok)


def test_async_server_closed_refuses_and_unknown_key_fails_at_admission(rng):
    eng, _ = _server_engine(rng)

    async def main():
        srv = AsyncServer(eng)
        with pytest.raises(ServerError, match="not started"):
            await srv.submit(Request(a="A", b="B"))
        async with srv:
            from repro.service import StoreError

            with pytest.raises(StoreError, match="no matrix"):
                await srv.submit(Request(a="missing", b="B"))
        with pytest.raises(ServerClosed):
            await srv.submit(Request(a="A", b="B"))

    asyncio.run(main())


def test_async_server_rejects_bad_bounds(rng):
    eng, _ = _server_engine(rng)
    with pytest.raises(ServerError, match="positive"):
        AsyncServer(eng, workers=0)
    with pytest.raises(ServerError, match="max_queued_flops"):
        AsyncServer(eng, max_queued_flops=0)


def test_async_server_result_cache_tier_reported(rng):
    eng, _ = _server_engine(rng, result_cache_bytes=16 << 20)
    reqs = [Request(a="A", b="B", mask="M", phases=2) for _ in range(6)]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            return await serve_all(srv, reqs)

    resps = asyncio.run(main())
    hits = [r for r in resps if r.stats.result_cache_hit]
    misses = [r for r in resps if not r.stats.result_cache_hit]
    # two workers may race both cold requests, but hits must alias a computed
    # result object and every response must be bit-identical
    assert hits
    computed = {id(m.result) for m in misses}
    assert all(id(h.result) in computed for h in hits)
    assert all(r.result.equals(resps[0].result) for r in resps)
    assert eng.stats.result_hits == len(hits)


# ---------------------------------------------------------------------- #
# request dedup (coalescing identical in-flight requests)
# ---------------------------------------------------------------------- #
def test_async_server_coalesces_identical_inflight(rng):
    """A burst of identical requests executes once; followers share the
    primary's result object and are flagged coalesced."""
    eng, (A, B, M) = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(10)]

    async def main():
        async with AsyncServer(eng, workers=2) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    coalesced = [r for r in resps if r.stats.coalesced]
    primaries = [r for r in resps if not r.stats.coalesced]
    assert srv.stats.coalesced == len(coalesced)
    assert srv.stats.completed == len(primaries)
    assert len(primaries) >= 1 and len(coalesced) >= 1
    assert eng.stats.requests == len(primaries)  # executed exactly once each
    # followers alias the primary's matrix (no copy) and keep their own tag
    pid = {id(p.result) for p in primaries}
    for r in coalesced:
        assert id(r.result) in pid
    assert [r.tag for r in resps] == [str(i) for i in range(10)]
    for r in resps:
        assert_masked_product_correct(r.result, A, B, M)


def test_async_server_dedup_distinguishes_values(rng):
    """Same patterns, different values → different value fingerprints →
    no coalescing (the results would differ)."""
    eng, (A, B, M) = _server_engine(rng)
    A2 = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data + 1.0, A.shape)
    eng.register("A2", A2)
    reqs = [Request(a="A", b="B", mask="M", phases=2),
            Request(a="A2", b="B", mask="M", phases=2)]

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert srv.stats.coalesced == 0
    assert not resps[0].result.equals(resps[1].result)


def test_async_server_dedup_distinguishes_config(rng):
    """Same operands, different kernel/phases/semiring → no coalescing."""
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, algorithm="msa"),
            Request(a="A", b="B", mask="M", phases=1, algorithm="msa"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="hash"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="msa",
                    semiring="plus_pair")]

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            return await serve_all(srv, reqs), srv

    _, srv = asyncio.run(main())
    assert srv.stats.coalesced == 0 and srv.stats.completed == 4


def test_async_server_dedup_propagates_primary_failure(rng):
    """Followers of a failing primary re-raise the same engine error."""
    from repro.errors import AlgorithmError

    eng, _ = _server_engine(rng)
    # no mask + complemented raises in the worker, after admission
    reqs = [Request(a="A", b="B", complemented=True) for _ in range(4)]

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            return await asyncio.gather(
                *[srv.submit(r) for r in reqs], return_exceptions=True)

    results = asyncio.run(main())
    assert all(isinstance(r, AlgorithmError) for r in results)


def test_async_server_dedup_off_executes_each(rng):
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2) for _ in range(6)]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert srv.stats.coalesced == 0
    assert srv.stats.completed == 6
    assert not any(r.stats.coalesced for r in resps)


def test_execution_failure_attributed_and_server_survives(rng):
    """A crash inside ``engine.submit`` must fail that request's future,
    keep the worker alive for the next request, and leave close() clean."""
    eng, (A, B, M) = _server_engine(rng)
    req = Request(a="A", b="B", mask="M", algorithm="esc", phases=2)
    original = eng.submit
    crashes = []

    def explode_once(request):
        if not crashes:
            crashes.append(request)
            raise RuntimeError("injected execution crash")
        return original(request)

    eng.submit = explode_once

    async def main():
        server = AsyncServer(eng, workers=1, dedup=False)
        await server.start()
        with pytest.raises(RuntimeError, match="injected execution crash"):
            await server.submit(req)
        # the worker lived through it and serves the next request
        resp = await server.submit(req)
        await server.close()
        return resp, server

    resp, server = asyncio.run(main())
    assert_masked_product_correct(resp.result, A, B, M)
    assert eng.stats.requests == 1  # the crashed request never executed
    assert server.stats.failed == 1 and server.stats.completed == 1
    assert server.stats.batches == 2  # one execution per request


# ---------------------------------------------------------------------- #
# one request per worker
# ---------------------------------------------------------------------- #
def test_distinct_requests_execute_concurrently(rng):
    """Two distinct queued requests run side by side on the two workers:
    each execution waits on a two-party barrier, so the requests complete
    only if both are inside ``engine.submit`` at the same time."""
    import threading

    eng, (A, B, M) = _server_engine(rng)
    A2 = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data * 2.0, A.shape)
    eng.register("A2", A2)
    barrier = threading.Barrier(2, timeout=5)
    original = eng.submit

    def rendezvous(request):
        barrier.wait()
        return original(request)

    eng.submit = rendezvous
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag="a"),
            Request(a="A2", b="B", mask="M", phases=2, tag="a2")]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert [r.tag for r in resps] == ["a", "a2"]
    assert_masked_product_correct(resps[0].result, A, B, M)
    assert_masked_product_correct(resps[1].result, A2, B, M)
    assert srv.stats.batches == 2 and srv.stats.failed == 0


def test_worker_pool_stress_keeps_counts(rng):
    """More workers than cores, many distinct requests and a short thread
    switch interval: every request executes exactly once, the engine's
    shared counters lose no update, and the queue and in-flight gauges
    return to zero."""
    import sys

    eng, (A, B, M) = _server_engine(rng)
    n = 48
    for i in range(n):
        eng.register(f"A{i}", CSRMatrix(A.indptr.copy(), A.indices.copy(),
                                        A.data + i, A.shape))
    reqs = [Request(a=f"A{i}", b="B", mask="M", phases=2,
                    algorithm=("msa", "hash", "esc")[i % 3], tag=str(i))
            for i in range(n)]

    async def main():
        async with AsyncServer(eng, workers=6, max_inflight=8,
                               dedup=False) as srv:
            resps = await asyncio.wait_for(serve_all(srv, reqs), 60)
        return resps, srv

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        resps, srv = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
    assert [r.tag for r in resps] == [str(i) for i in range(n)]
    assert srv.stats.completed == n and srv.stats.batches == n
    assert srv.stats.failed == 0 and srv.stats.max_inflight_seen <= 8
    assert eng.stats.requests == n
    assert eng.stats.plan_hits + eng.stats.plan_misses == n
    assert len(eng.plans) == 3
    assert eng.metrics.get("repro_server_inflight").value() == 0
    assert eng.metrics.get("repro_server_queue_depth").value() == 0
    for i in (0, 1, 2, n - 1):
        Ai = eng.store.get(f"A{i}")
        assert_masked_product_correct(resps[i].result, Ai, B, M)


def test_cold_same_plan_key_builds_race_without_single_flight(rng):
    """N requests sharing one plan key (same patterns, different values)
    start cold on two workers. Workers that miss at once both build the
    plan; every response is still bit-identical to the reference tier and
    the cache ends with one plan for the key."""
    from repro.core.reference import reference_masked_spgemm
    from repro.semiring import PLUS_TIMES

    eng, (A, B, M) = _server_engine(rng)
    n = 6
    operands = []
    for i in range(n):
        Ai = CSRMatrix(A.indptr.copy(), A.indices.copy(),
                       A.data * (i + 1.5), A.shape)
        eng.register(f"A{i}", Ai)
        operands.append(Ai)
    reqs = [Request(a=f"A{i}", b="B", mask="M", phases=2, algorithm="msa",
                    tag=str(i)) for i in range(n)]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            return await serve_all(srv, reqs)

    resps = asyncio.run(main())
    assert [r.tag for r in resps] == [str(i) for i in range(n)]
    for Ai, r in zip(operands, resps):
        want = reference_masked_spgemm(Ai, B, Mask.from_matrix(M),
                                       algorithm="msa", semiring=PLUS_TIMES)
        assert r.result.same_pattern(want)
        assert np.array_equal(r.result.data, want.data)
    assert len(eng.plans) == 1
    assert eng.stats.plan_hits + eng.stats.plan_misses == n
    assert eng.stats.plan_misses >= 1


def test_warm_requests_report_direct_write(rng):
    """Two-phase engine requests on a fused kernel flag the direct-write
    numeric path in their telemetry (cold and warm alike — the cold pass
    also writes through its freshly built plan)."""
    eng, _ = _server_engine(rng)
    req = Request(a="A", b="B", mask="M", phases=2, algorithm="esc")
    cold = eng.submit(req)
    warm = eng.submit(req)
    assert cold.stats.direct_write and warm.stats.direct_write
    one_phase = eng.submit(Request(a="A", b="B", mask="M", phases=1,
                                   algorithm="esc"))
    assert not one_phase.stats.direct_write
    unfused = eng.submit(Request(a="A", b="B", mask="M", phases=2,
                                 algorithm="mca"))
    assert not unfused.stats.direct_write


# ---------------------------------------------------------------------- #
# deltas vs in-flight reads (PR 8)
# ---------------------------------------------------------------------- #
def test_delta_mid_flight_refuses_stale_result_writeback(rng, monkeypatch):
    """The staleness hazard, engine-level: a delta lands on an operand
    while a request is mid-numeric. The request's snapshot stays consistent
    (copy-on-write entries), but its late result-cache writeback must be
    refused by the version guard — otherwise a pre-delta product would
    resurrect into the post-delta cache, behind the invalidation the delta
    just ran."""
    import threading

    import repro.service.engine as engine_mod
    from repro.delta import DeltaBatch

    eng, (A, B, M) = _server_engine(rng, result_cache_bytes=1 << 24)
    req = Request(a="A", b="B", mask="M", phases=2)
    started, release = threading.Event(), threading.Event()
    real = engine_mod.masked_spgemm

    def held(*args, **kw):
        started.set()
        assert release.wait(10.0)
        return real(*args, **kw)

    monkeypatch.setattr(engine_mod, "masked_spgemm", held)
    box = {}
    t = threading.Thread(target=lambda: box.update(resp=eng.submit(req)))
    t.start()
    assert started.wait(10.0)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    eng.apply_delta("A", DeltaBatch(
        update=[(int(rows[0]), int(A.indices[0]), 123.0)]))
    release.set()
    t.join(10.0)
    monkeypatch.undo()

    # the in-flight response itself is the correct *pre-delta* product
    assert_masked_product_correct(box["resp"].result, A, B, M)
    assert "repro_delta_stale_total 1" in eng.metrics.render()
    # nothing resurrected: the next submit misses the result tier (old
    # value hash invalidated, new one never written back stale)
    resp2 = eng.submit(req)
    assert not resp2.stats.result_cache_hit
    resp3 = eng.submit(req)       # ...and the fresh product cached normally
    assert resp3.stats.result_cache_hit


def test_async_server_orders_delta_against_reads(rng, monkeypatch):
    """The server-side ordering contract: a delta waits out in-flight reads
    on its key; reads admitted after the delta began park at the gate and
    resolve post-delta entries."""
    import threading

    import repro.service.engine as engine_mod
    from repro.delta import DeltaBatch

    eng, (A, B, M) = _server_engine(rng)
    started = threading.Event()
    release = threading.Event()
    real = engine_mod.masked_spgemm

    def held(*args, **kw):
        started.set()
        assert release.wait(10.0)
        return real(*args, **kw)

    monkeypatch.setattr(engine_mod, "masked_spgemm", held)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    batch = DeltaBatch(delete=[(int(rows[i]), int(A.indices[i]))
                               for i in range(5)])

    async def main():
        async with AsyncServer(eng, workers=2) as srv:
            r1 = asyncio.create_task(
                srv.submit(Request(a="A", b="B", mask="M", phases=2)))
            await asyncio.to_thread(started.wait, 10.0)
            delta = asyncio.create_task(srv.apply_delta("A", batch))
            # the writer must park until the in-flight reader drains...
            await asyncio.sleep(0.1)
            assert not delta.done() and "A" in srv._writers
            # ...and a read admitted behind it parks at the gate
            r2 = asyncio.create_task(
                srv.submit(Request(a="A", b="B", mask="M", phases=2,
                                   tag="post")))
            await asyncio.sleep(0.1)
            assert not r2.done()
            release.set()
            resp1 = await r1
            outcome = await delta
            resp2 = await r2
            return resp1, outcome, resp2

    resp1, outcome, resp2 = asyncio.run(main())
    monkeypatch.undo()
    # first read saw the pre-delta operands, second the post-delta ones
    assert_masked_product_correct(resp1.result, A, B, M)
    assert outcome.kind == "pattern"
    post_A = eng.entry("A").value
    assert_masked_product_correct(resp2.result, post_A, B, M)
