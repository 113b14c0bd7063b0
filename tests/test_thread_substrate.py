"""Threads over the compiled kernels — the parallel execution substrate.

The contracts this suite holds the thread substrate to:

* row-parallel execution on a :class:`~repro.parallel.executor.ThreadExecutor`
  is **bit-identical** to the pure-Python reference tier and to the serial
  fused path, across the four fused kernels (routed through
  :func:`~repro.core.registry.native_variant`, so ``msa`` runs compiled
  when a backend exists), plain and complemented masks, every
  registered semiring, empty and tiny operands, and more workers than rows;
* direct write (known row sizes → preallocated CSR → chunks fill disjoint
  slices) equals the stitch path on every executor for the compiled keys;
* a stale plan fails loudly on the threaded path and leaves the pool
  serviceable;
* an :class:`~repro.service.Engine` built over a thread pool serves first,
  repeated and post-delta requests bit-identically, and its kernel degrade
  ladder (native → fused → loop) holds on every rung.
"""

import asyncio

import numpy as np
import pytest

from conftest import make_triple
from repro.core import build_plan, masked_spgemm
from repro.core.plan import SymbolicPlan
from repro.core.reference import reference_masked_spgemm
from repro.core.registry import native_variant
from repro.delta import DeltaBatch
from repro.errors import AlgorithmError
from repro.mask import Mask
from repro.obs import parse_exposition
from repro.parallel.executor import (
    SerialExecutor,
    SimulatedExecutor,
    ThreadExecutor,
)
from repro.parallel.runner import parallel_masked_spgemm
from repro.resilience import FaultPlan, FaultSpec
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.service import AsyncServer, Engine, Request
from repro.service.engine import kernel_tier
from repro.sparse import CSRMatrix, csr_random

FUSED = ["esc", "msa", "hash", "heap"]
#: kernels routed through native_variant: msa runs compiled when a backend
#: exists, hash (which has no compiled loop) stays fused
COMPILED_BASES = ["msa", "hash"]


def _assert_identical(got, want):
    assert got.same_pattern(want)
    assert np.array_equal(got.data, want.data)


@pytest.fixture
def pool():
    with ThreadExecutor(3) as ex:
        yield ex


def _shifted_plan(plan):
    """``plan`` with one entry moved between rows: the same total nnz but a
    wrong per-row split — the hardest stale plan to catch."""
    sizes = plan.row_sizes.copy()
    src = int(np.argmax(sizes))
    sizes[src] -= 1
    sizes[(src + 1) % sizes.size] += 1
    return SymbolicPlan(algorithm=plan.algorithm, phases=2, shape=plan.shape,
                        row_sizes=sizes)


# --------------------------------------------------------------------- #
# bit-identity against the reference and serial tiers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", FUSED)
@pytest.mark.parametrize("complemented", [False, True])
def test_thread_equals_reference(rng, pool, algorithm, complemented):
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    mask = Mask.from_matrix(M, complemented=complemented)
    ref = reference_masked_spgemm(A, B, mask, algorithm)
    got = parallel_masked_spgemm(A, B, mask,
                                 algorithm=native_variant(algorithm),
                                 phases=2, executor=pool)
    _assert_identical(got, ref)


@pytest.mark.parametrize("algorithm", FUSED)
@pytest.mark.parametrize("semiring", [PLUS_TIMES, PLUS_PAIR, MIN_PLUS],
                         ids=lambda s: s.name)
def test_thread_all_semirings(rng, pool, algorithm, semiring):
    A, B, M = make_triple(rng, m=35, k=30, n=30)
    mask = Mask.from_matrix(M)
    want = masked_spgemm(A, B, mask, algorithm=algorithm, semiring=semiring,
                         phases=2)
    got = parallel_masked_spgemm(A, B, mask,
                                 algorithm=native_variant(algorithm),
                                 semiring=semiring, phases=2, executor=pool)
    _assert_identical(got, want)


@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_thread_tc_workload(nworkers):
    """The paper's TC product L ⊙ (L·L) on 1, 2 and 4 threads."""
    from repro.graphs import erdos_renyi
    from repro.graphs.prep import triangle_prep

    L = triangle_prep(erdos_renyi(200, 8.0, rng=7, symmetrize=True))
    mask = Mask.from_matrix(L)
    want = masked_spgemm(L, L, mask, algorithm="msa", semiring=PLUS_PAIR,
                         phases=2)
    with ThreadExecutor(nworkers) as ex:
        got = parallel_masked_spgemm(L, L, mask,
                                     algorithm=native_variant("msa"),
                                     semiring=PLUS_PAIR, phases=2,
                                     executor=ex)
    _assert_identical(got, want)
    assert got.nnz > 0


@pytest.mark.parametrize("algorithm", FUSED)
def test_thread_empty_and_tiny(rng, algorithm):
    key = native_variant(algorithm)
    A = CSRMatrix.empty((6, 5))
    B = CSRMatrix.empty((5, 7))
    M = csr_random(6, 7, density=0.3, rng=rng)
    with ThreadExecutor(2) as ex:
        got = parallel_masked_spgemm(A, B, Mask.from_matrix(M),
                                     algorithm=key, phases=2, executor=ex)
        assert got.nnz == 0 and got.shape == (6, 7)
    # more workers than rows
    A2, B2, M2 = make_triple(rng, m=3, k=4, n=5)
    mask = Mask.from_matrix(M2)
    with ThreadExecutor(8) as ex:
        got = parallel_masked_spgemm(A2, B2, mask, algorithm=key, phases=2,
                                     executor=ex)
    _assert_identical(got, reference_masked_spgemm(A2, B2, mask, algorithm))


@pytest.mark.parametrize("algorithm", FUSED)
def test_thread_with_and_without_prebuilt_plan(rng, pool, algorithm):
    key = native_variant(algorithm)
    A, B, M = make_triple(rng, m=30)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm=key, phases=2)
    got = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                 plan=plan, executor=pool)
    _assert_identical(got, masked_spgemm(A, B, mask, algorithm=algorithm,
                                         phases=2))
    # no plan: the threaded symbolic pass computes the plan's row sizes
    cold = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                  executor=pool)
    assert np.array_equal(np.diff(cold.indptr), plan.row_sizes)
    _assert_identical(cold, got)


# --------------------------------------------------------------------- #
# direct write vs stitch for the compiled keys, on every executor
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", COMPILED_BASES)
@pytest.mark.parametrize("complemented", [False, True])
@pytest.mark.parametrize("make_exec", [
    SerialExecutor,
    lambda: ThreadExecutor(3),
    lambda: SimulatedExecutor(3),
], ids=["serial", "thread", "simulated"])
def test_compiled_direct_write_equals_stitch(rng, algorithm, complemented,
                                             make_exec):
    key = native_variant(algorithm)
    A, B, M = make_triple(rng, m=60, k=40, n=50)
    mask = Mask.from_matrix(M, complemented=complemented)
    plan = build_plan(A, B, mask, algorithm=key, phases=2)
    ex = make_exec()
    try:
        stitched = parallel_masked_spgemm(A, B, mask, algorithm=key,
                                          phases=2, plan=plan, executor=ex,
                                          direct_write=False)
        direct = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                        plan=plan, executor=ex)
    finally:
        if isinstance(ex, ThreadExecutor):
            ex.close()
    _assert_identical(direct, stitched)
    _assert_identical(direct, reference_masked_spgemm(A, B, mask, algorithm))


@pytest.mark.parametrize("algorithm", COMPILED_BASES)
def test_thread_stale_plan_raises_and_pool_survives(rng, pool, algorithm):
    """A stale plan fails inside a threaded chunk before any out-of-slice
    write; the pool keeps serving the honest plan afterwards."""
    key = native_variant(algorithm)
    A, B, M = make_triple(rng, m=30)
    mask = Mask.from_matrix(M)
    plan = build_plan(A, B, mask, algorithm=key, phases=2)
    assert plan.nnz > 0
    with pytest.raises(AlgorithmError, match="stale plan"):
        parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                               plan=_shifted_plan(plan), executor=pool)
    got = parallel_masked_spgemm(A, B, mask, algorithm=key, phases=2,
                                 plan=plan, executor=pool)
    _assert_identical(got, reference_masked_spgemm(A, B, mask, algorithm))


def test_thread_custom_semiring(rng, pool):
    """Threads share the interpreter, so an unregistered semiring runs on
    the pool unchanged (the compiled tier delegates to its fused base)."""
    from repro.semiring import Semiring
    from repro.semiring.semiring import Monoid

    custom = Semiring(add=Monoid(np.maximum, -np.inf, "max"),
                      mul=np.multiply, name="custom_max_times")
    A, B, M = make_triple(rng, m=20)
    mask = Mask.from_matrix(M)
    got = parallel_masked_spgemm(A, B, mask, algorithm=native_variant("msa"),
                                 semiring=custom, phases=2, executor=pool)
    _assert_identical(got, masked_spgemm(A, B, mask, algorithm="msa",
                                         semiring=custom, phases=2))


def test_simulated_makespan_over_compiled_chunks(rng):
    """The makespan model times the compiled chunks the thread pool would
    run: bounded by serial/p below and serial above."""
    A, B, M = make_triple(rng, m=60, k=50, n=60, da=0.2, db=0.2, dm=0.3)
    mask = Mask.from_matrix(M)
    ex = SimulatedExecutor(4)
    got = parallel_masked_spgemm(A, B, mask, algorithm=native_variant("msa"),
                                 phases=2, executor=ex, nchunks=8)
    _assert_identical(got, reference_masked_spgemm(A, B, mask, "msa"))
    assert len(ex.last_chunk_seconds) == 8
    assert ex.last_makespan_seconds <= ex.last_serial_seconds + 1e-12
    assert ex.last_makespan_seconds >= ex.last_serial_seconds / 4 - 1e-12


# --------------------------------------------------------------------- #
# an engine over a thread pool
# --------------------------------------------------------------------- #
def _threaded_engine(pool, A, B, M, **kwargs):
    eng = Engine(executor=pool, **kwargs)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng


class TestThreadedEngine:
    @pytest.mark.parametrize("algorithm", FUSED)
    def test_submit_cold_and_warm_bit_identical(self, rng, pool, algorithm):
        A, B, M = make_triple(rng, m=40, k=30, n=35)
        key = native_variant(algorithm)
        want = reference_masked_spgemm(A, B, Mask.from_matrix(M), algorithm)
        with _threaded_engine(pool, A, B, M) as eng:
            req = Request(a="A", b="B", mask="M", algorithm=key, phases=2)
            cold = eng.submit(req)
            warm = eng.submit(req)
            assert eng.stats.computed == 2
            assert warm.stats.kernel_tier == kernel_tier(key)
            _assert_identical(cold.result, want)
            _assert_identical(warm.result, want)

    @pytest.mark.parametrize("algorithm", COMPILED_BASES)
    def test_complemented_mask_request(self, rng, pool, algorithm):
        A, B, M = make_triple(rng, m=30)
        with _threaded_engine(pool, A, B, M) as eng:
            resp = eng.submit(Request(a="A", b="B", mask="M",
                                      complemented=True,
                                      algorithm=native_variant(algorithm),
                                      phases=2))
        mask = Mask.from_matrix(M, complemented=True)
        _assert_identical(resp.result,
                          reference_masked_spgemm(A, B, mask, algorithm))

    def test_non_direct_write_requests_still_correct(self, rng, pool):
        A, B, M = make_triple(rng, m=25, k=25, n=25)
        mask = Mask.from_matrix(M)
        with _threaded_engine(pool, A, A, M) as eng:
            # mca has no direct-write entry point: the stitch path serves
            resp = eng.submit(Request(a="A", b="B", mask="M",
                                      algorithm="mca", phases=2))
            _assert_identical(resp.result,
                              masked_spgemm(A, A, mask, algorithm="mca",
                                            phases=2))
            # one-phase requests carry no row sizes
            resp1 = eng.submit(Request(a="A", b="B", mask="M",
                                       algorithm="esc", phases=1))
            _assert_identical(resp1.result,
                              reference_masked_spgemm(A, A, mask, "esc"))
            # ad-hoc multiply (no store keys)
            resp2 = eng.multiply(A, A, mask, algorithm="esc")
            _assert_identical(resp2.result, resp1.result)

    def test_evicted_operand_refuses_then_recovers(self, rng, pool):
        A, B, M = make_triple(rng, m=25, k=25, n=25)
        with _threaded_engine(pool, A, A, M) as eng:
            req = Request(a="A", b="B", mask="M", algorithm="esc", phases=2)
            first = eng.submit(req)
            assert eng.evict("A")
            with pytest.raises(Exception, match="A"):
                eng.submit(req)
            eng.register("A", A)
            again = eng.submit(req)
            _assert_identical(again.result, first.result)

    def test_store_budget_evictions_under_churn(self, rng, pool):
        """Operands the store LRU-evicts under its byte budget stay gone;
        the survivors keep serving on the pool."""
        mats = [csr_random(40, 40, density=0.2, rng=rng) for _ in range(4)]
        budget = sum(m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
                     for m in mats[:2]) + 64
        with Engine(budget_bytes=budget, executor=pool) as eng:
            for i, m in enumerate(mats):
                eng.register(f"m{i}", m)
            live = set(eng.store.keys())
            assert live and live != {f"m{i}" for i in range(4)}
            assert "m3" in live  # most recently registered survives
            resp = eng.submit(Request(a="m3", b="m3", mask="m3",
                                      algorithm="msa", phases=2))
            mask = Mask.from_matrix(mats[3])
            _assert_identical(resp.result, reference_masked_spgemm(
                mats[3], mats[3], mask, "msa"))

    def test_async_server_over_thread_pool(self, rng, pool):
        A, B, M = make_triple(rng, m=30)
        want = reference_masked_spgemm(A, B, Mask.from_matrix(M), "msa")
        with _threaded_engine(pool, A, B, M) as eng:
            reqs = [Request(a="A", b="B", mask="M",
                            algorithm=native_variant("msa"), phases=2,
                            tag=str(i)) for i in range(6)]

            async def run():
                async with AsyncServer(eng, workers=2, dedup=False) as srv:
                    return await asyncio.gather(
                        *[srv.submit(r) for r in reqs])

            resps = asyncio.run(run())
            assert eng.stats.requests == len(reqs)
        for r in resps:
            _assert_identical(r.result, want)

    @pytest.mark.parametrize("kind", ["value", "pattern"])
    def test_post_delta_product_bit_identical(self, rng, pool, kind):
        A, B, M = make_triple(rng, m=30)
        with _threaded_engine(pool, A, B, M) as eng:
            req = Request(a="A", b="B", mask="M",
                          algorithm=native_variant("hash"), phases=2)
            eng.submit(req)
            rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
            edges = [(int(rows[i]), int(A.indices[i])) for i in range(4)]
            if kind == "value":
                batch = DeltaBatch(update=[(r, c, 7.0) for r, c in edges])
            else:
                batch = DeltaBatch(delete=edges)
            out = eng.apply_delta("A", batch)
            assert out.kind == kind
            post_A = eng.entry("A").value
            resp = eng.submit(req)
            assert resp.stats.serving_tier == "computed"
        _assert_identical(resp.result, reference_masked_spgemm(
            post_A, B, Mask.from_matrix(M), "hash"))


# --------------------------------------------------------------------- #
# the degrade ladder on a threaded engine: first request, repeat
# ("plan-hit", the name it had when repeats hit a plan), post-delta
# --------------------------------------------------------------------- #
def _ladder(key, nfaults):
    """(tier that serves, degrade edges) after ``nfaults`` consecutive
    ``engine.kernel`` errors on a request for ``key``."""
    if kernel_tier(key) != "native":
        return "loop", {("fused", "loop"): 1}
    if nfaults == 1:
        return "fused", {("native", "fused"): 1}
    return "loop", {("native", "fused"): 1, ("fused", "loop"): 1}


def _degrade_edges(engine):
    fam = parse_exposition(engine.metrics.render()).get(
        "repro_degraded_total", {})
    return {(dict(k)["from"], dict(k)["to"]): v for k, v in fam.items()}


@pytest.mark.parametrize("when", ["cold", "plan-hit", "post-delta"])
@pytest.mark.parametrize("nfaults", [1, 2])
@pytest.mark.parametrize("algorithm", COMPILED_BASES)
def test_threaded_ladder_bit_identical(rng, pool, algorithm, nfaults, when):
    key = native_variant(algorithm)
    skip = 0 if when == "cold" else 1
    # on a fused key the first fault already lands on the loop
    nfaults = nfaults if kernel_tier(key) == "native" else 1
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    faults = FaultPlan([FaultSpec(site="engine.kernel", action="error",
                                  count=nfaults, skip=skip)])
    req = Request(a="A", b="B", mask="M", algorithm=key, phases=2)
    with _threaded_engine(pool, A, B, M, faults=faults) as eng:
        if skip:
            warm = eng.submit(req)
            assert warm.stats.kernel_tier == kernel_tier(key)
        if when == "post-delta":
            rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
            out = eng.apply_delta("A", DeltaBatch(
                delete=[(int(rows[i]), int(A.indices[i]))
                        for i in range(4)]))
            assert out.kind == "pattern"
            A = eng.entry("A").value
        resp = eng.submit(req)
        assert eng.stats.computed == 1 + skip
        want = reference_masked_spgemm(A, B, Mask.from_matrix(M), algorithm)
        _assert_identical(resp.result, want)
        tier, edges = _ladder(key, nfaults)
        assert resp.stats.kernel_tier == tier
        assert _degrade_edges(eng) == edges
        # faults spent: back on the top rung, same bytes
        again = eng.submit(req)
        assert again.stats.kernel_tier == kernel_tier(key)
        _assert_identical(again.result, want)


def test_threaded_degrade_recorded_in_trace(rng, pool):
    A, B, M = make_triple(rng, m=30)
    faults = FaultPlan([FaultSpec(site="engine.kernel", action="error")])
    with _threaded_engine(pool, A, B, M, faults=faults) as eng:
        resp = eng.submit(Request(a="A", b="B", mask="M",
                                  algorithm=native_variant("msa"),
                                  phases=2))
        record = eng.tracer.get(resp.stats.trace_id)
    assert record is not None
    spans = record.find("degrade")
    assert len(spans) == 1
    assert spans[0].attrs["to"] == resp.stats.kernel_tier
    _assert_identical(resp.result, reference_masked_spgemm(
        A, B, Mask.from_matrix(M), "msa"))
