"""Tests for the async serving front end and the result-cache tier
(repro.service.server / result_cache)."""

import asyncio

import numpy as np
import pytest

from conftest import assert_masked_product_correct, make_triple
from repro.errors import AlgorithmError, ShapeError
from repro.service import (
    AsyncServer,
    Engine,
    Request,
    ResultCache,
    ServerClosed,
    ServerError,
    render_serve_report,
    serve_all,
)
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
    assert hit.stats.result_cache_hit and hit.stats.serving_tier == "result"
    # bit-identical: the very same CSR object comes back
    assert hit.result is cold.result
    assert hit.stats.algorithm == cold.stats.algorithm != "auto"
    assert hit.stats.kernel_tier == "" and hit.stats.numeric_seconds == 0
    assert eng.stats.result_hits == 1 and eng.stats.computed == 1
    latency = eng.metrics.get("repro_request_seconds")
    assert latency.count(tier="result") == latency.count(tier="computed") == 1


def test_engine_value_change_invalidates_result_not_plan(cached_engine):
    """New values under the same pattern: the result tier must miss (values
    key it), and the product is computed from the new values."""
    eng, (A, B, M) = cached_engine
    req = Request(a="A", b="B", mask="M", phases=2)
    eng.submit(req)
    A2 = A.pattern(0.5)  # same pattern, different values
    eng.register("A", A2)
    resp = eng.submit(req)
    assert not resp.stats.result_cache_hit
    assert resp.stats.serving_tier == "computed"
    assert_masked_product_correct(resp.result, A2, B, M)
    # and the old entry is still there: re-registering the original values
    # brings back result hits without recomputation
    eng.register("A", A)
    assert eng.submit(req).stats.result_cache_hit


def test_engine_distinct_configs_distinct_result_entries(cached_engine):
    """Every structural field of a request keys its own result entry —
    except ``phases``: both values are served one-phase with the same
    bits, so a phases=1 repeat of a phases=2 request is a hit."""
    eng, _ = cached_engine
    base = dict(a="A", b="B", mask="M")
    first = eng.submit(Request(**base, phases=2))
    for variant in (Request(**base, phases=2, algorithm="hash"),
                    Request(**base, phases=2, semiring="plus_pair"),
                    Request(a="A", b="B", phases=2),          # no mask
                    Request(**base, phases=2, complemented=True)):
        assert not eng.submit(variant).stats.result_cache_hit, variant
    again = eng.submit(Request(**base, phases=1))
    assert again.stats.result_cache_hit and again.result is first.result


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
    assert not warm.stats.result_cache_hit
    assert eng.stats.computed == 2 and eng.stats.result_hits == 0


def test_engine_multiply_bypasses_result_cache(cached_engine):
    """Ad-hoc operands are not value-hashed (iterative traffic changes
    values every call); only store-keyed requests use the result tier."""
    eng, (A, B, M) = cached_engine
    eng.multiply(A, B, M, phases=2)
    resp = eng.multiply(A, B, M, phases=2)
    assert not resp.stats.result_cache_hit
    assert resp.stats.serving_tier == "computed"
    assert len(eng.results) == 0


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


def test_serve_report_queue_wait_counts_each_execution_once(rng):
    """Coalesced followers copy their primary's ``queued_seconds``; the
    report's ``queue wait:`` line counts every executed request once."""
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(10)]

    async def main():
        async with AsyncServer(eng, workers=2) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    executed = sum(1 for r in resps if not r.stats.coalesced)
    assert 1 <= executed < len(resps) and executed == srv.stats.completed
    report = render_serve_report(eng, srv, resps, seconds=1.0)
    wait = next(line for line in report.splitlines()
                if line.startswith("queue wait:"))
    assert f"n={executed} " in wait


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
    """Same operands, different kernel/semiring/mask polarity → no
    coalescing. ``phases`` is not part of the key: both values are served
    one-phase with the same bits, so a phases=1 twin coalesces."""
    eng, _ = _server_engine(rng)
    reqs = [Request(a="A", b="B", mask="M", phases=2, algorithm="msa"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="hash"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="msa",
                    semiring="plus_pair"),
            Request(a="A", b="B", mask="M", phases=2, algorithm="msa",
                    complemented=True),
            Request(a="A", b="B", mask="M", phases=1, algorithm="msa")]

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            return await serve_all(srv, reqs), srv

    resps, srv = asyncio.run(main())
    assert srv.stats.coalesced == 1 and srv.stats.completed == 4
    assert resps[4].stats.coalesced and resps[4].result is resps[0].result


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
    assert eng.stats.requests == eng.stats.computed == n
    assert eng.metrics.get("repro_server_inflight").value() == 0
    assert eng.metrics.get("repro_server_queue_depth").value() == 0
    for i in (0, 1, 2, n - 1):
        Ai = eng.store.get(f"A{i}")
        assert_masked_product_correct(resps[i].result, Ai, B, M)


def test_server_rejects_bad_phases_before_coalescing(rng):
    """A ``phases=3`` twin of an in-flight valid request is refused at
    admission instead of sharing the twin's response (``phases`` is not
    part of the dedup key)."""
    eng, _ = _server_engine(rng)

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            return await asyncio.gather(
                srv.submit(Request(a="A", b="B", mask="M", phases=1)),
                srv.submit(Request(a="A", b="B", mask="M", phases=3)),
                return_exceptions=True)

    good, bad = asyncio.run(main())
    assert not isinstance(good, BaseException)
    assert isinstance(bad, AlgorithmError)


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
