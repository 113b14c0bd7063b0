"""Chaos suite for :mod:`repro.resilience`.

The standing contract: every resilience mechanism keeps results
**bit-identical** — a degraded request returns exactly the bytes the
row-by-row reference tier (:mod:`repro.core.reference`) computes. The
fault-injection seam (:class:`~repro.resilience.FaultPlan`) is what lets
this suite *actually* fail kernel calls, slow kernels, and expire
deadlines, deterministically:

* an ``engine.kernel`` error walks the degrade ladder (native → fused →
  loop) one rung per fault — on a first request, on a repeat and on the
  first request after a pattern delta — bit-identical at every rung;
* deadlines shed queued work (typed ``DeadlineExceeded`` naming the
  enforcement stage) and attribute a coalesced follower's expiry to the
  follower, not the primary;
* ``AsyncServer.close()`` during injected failures leaves no stranded
  futures.
"""

import asyncio
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import make_triple
from repro.mask import Mask
from repro.obs import MetricsRegistry, ObsHTTPServer, parse_exposition
from repro.native import native_available
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    apply_fault,
    resolve_deadline,
)
from repro.service import AsyncServer, Engine, Request
from repro.service.engine import kernel_tier
from repro.core.reference import reference_masked_spgemm


def _assert_identical(got, want):
    assert got.same_pattern(want)
    assert np.array_equal(got.data, want.data)


def _faulted_engine(rng, faults):
    A, B, M = make_triple(rng, m=40, k=30, n=35)
    eng = Engine(faults=faults)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng, (A, B, M)


def _reference_result(A, B, M):
    """The row-by-row reference tier's answer — the bit-identity oracle."""
    return reference_masked_spgemm(A, B, Mask.from_matrix(M))


def _families(engine):
    return parse_exposition(engine.metrics.render())


def _family_sum(engine, name):
    return sum(_families(engine).get(name, {}).values())


# ---------------------------------------------------------------------- #
# fault plan parsing and bookkeeping
# ---------------------------------------------------------------------- #
def test_fault_spec_parse_forms():
    s = FaultSpec.parse("engine.kernel:kill")
    assert (s.site, s.action, s.count) == ("engine.kernel", "kill", 1)
    s = FaultSpec.parse("engine.kernel:error:3")
    assert (s.action, s.count) == ("error", 3)
    s = FaultSpec.parse("engine.kernel:slow:2:0.05")
    assert (s.count, s.param) == (2, 0.05)
    with pytest.raises(ValueError):
        FaultSpec.parse("just-a-site")
    with pytest.raises(ValueError):
        FaultSpec.parse("engine.kernel:explode")
    with pytest.raises(ValueError):
        FaultSpec(site="x", action="kill", count=0)


def test_fault_plan_check_decrements_and_records():
    plan = FaultPlan.parse("engine.kernel:error:2,other.site:slow:1")
    assert bool(plan)
    assert plan.check("nowhere") is None
    assert plan.check("engine.kernel").action == "error"
    assert plan.check("engine.kernel").action == "error"
    assert plan.check("engine.kernel") is None  # budget spent
    assert plan.check("other.site").action == "slow"
    assert not plan  # everything spent
    assert plan.fired == {("engine.kernel", "error"): 2,
                          ("other.site", "slow"): 1}
    assert plan.fired_total() == 3


def test_fault_plan_skip_passes_through_first():
    plan = FaultPlan([FaultSpec(site="s", action="error", count=1, skip=2)])
    assert plan.check("s") is None
    assert plan.check("s") is None
    assert plan.check("s") is not None
    assert plan.check("s") is None


def test_fault_plan_from_env():
    assert FaultPlan.from_env({}) is None
    assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
    plan = FaultPlan.from_env({"REPRO_FAULTS": "engine.kernel:error:2"})
    assert plan.check("engine.kernel") is not None


def test_repro_faults_reaches_a_default_engine(rng, monkeypatch):
    # $REPRO_FAULTS alone arms an engine built without faults= (what
    # `REPRO_FAULTS=... repro serve` relies on): the request walks the
    # ladder, keeps the reference bits, and the degrade is bundled
    monkeypatch.setenv("REPRO_FAULTS", "engine.kernel:error:2")
    eng, (A, B, M) = _faulted_engine(rng, None)
    try:
        resp = eng.submit(Request(a="A", b="B", mask="M",
                                  algorithm="msa-native"))
        assert _family_sum(eng, "repro_degraded_total") > 0
        _assert_identical(resp.result, _reference_result(A, B, M))
        assert any(b.endswith("-degrade") for b in eng.flight.bundle_ids())
    finally:
        eng.close()


def test_apply_fault_actions():
    apply_fault(None)  # no-op
    with pytest.raises(InjectedFault):
        apply_fault(FaultSpec(site="s", action="error"))
    t0 = time.perf_counter()
    apply_fault(FaultSpec(site="s", action="slow", param=0.02))
    assert time.perf_counter() - t0 >= 0.02


def test_apply_fault_kill_exits_hard():
    # kill must be a crash (os._exit), not an exception — verify in a
    # throwaway child so the test process survives
    code = ("from repro.resilience import apply_fault, FaultSpec\n"
            "apply_fault(FaultSpec(site='s', action='kill'))\n"
            "print('survived')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(__file__).parent.parent
                                                 / "src")})
    assert proc.returncode == 1
    assert "survived" not in proc.stdout


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #
def test_deadline_basics():
    assert Deadline.after_ms(None) is None
    d = Deadline.after_ms(10_000)
    assert not d.expired() and d.remaining() > 9.0
    d.check("engine")  # plenty of budget: no raise
    spent = Deadline(time.monotonic() - 0.001)
    assert spent.expired()
    with pytest.raises(DeadlineExceeded) as ei:
        spent.check("queue", "3 tasks ahead")
    assert ei.value.stage == "queue"
    assert "3 tasks ahead" in str(ei.value)


def test_resolve_deadline_prefers_server_stamp():
    req = Request(a="A", b="B", deadline_ms=5_000)
    fresh = resolve_deadline(req)
    assert fresh is not None and fresh.remaining() > 4.0
    stamped = Deadline.after_ms(50)
    req._deadline = stamped
    assert resolve_deadline(req) is stamped  # queue time already counted
    assert resolve_deadline(Request(a="A", b="B")) is None


def test_request_deadline_ms_roundtrips_from_dict():
    req = Request.from_dict({"a": "A", "b": "B", "deadline_ms": 250})
    assert req.deadline_ms == 250


# ---------------------------------------------------------------------- #
# the kernel degrade ladder: native → fused → loop, bit-identical
# ---------------------------------------------------------------------- #
#: kernel tier of each rung the engine walks for each resolved kernel: a
#: native key drops to its fused base kernel, then to the per-row loop; a
#: fused key drops straight to the loop; msa-loop runs once more on the
#: loop rung; hash-native is an alias of fused hash, so it walks a fused
#: key's ladder
_LADDERS = {
    "msa-native": ("native", "fused", "loop"),
    "hash-native": ("fused", "loop"),
    "msa": ("fused", "loop"),
    "esc": ("fused", "loop"),
    "msa-loop": ("loop", "loop"),
}


def _expected_ladder(algorithm, nfaults):
    """(kernel tier that serves, repro_degraded_total edges) after
    ``nfaults`` consecutive ``engine.kernel`` errors on a request for
    ``algorithm``. Every rung but the last checks the fault site, so
    faults past ``len(rungs) - 1`` never fire."""
    rungs = _LADDERS[algorithm]
    dropped = min(nfaults, len(rungs) - 1)
    edges: dict = {}
    for edge in zip(rungs[:dropped], rungs[1:dropped + 1]):
        edges[edge] = edges.get(edge, 0) + 1
    return rungs[dropped], edges


def _degrade_edges(engine):
    fam = _families(engine).get("repro_degraded_total", {})
    return {(dict(k)["from"], dict(k)["to"]): v for k, v in fam.items()}


@pytest.mark.parametrize("when", ["cold", "plan-hit"])
@pytest.mark.parametrize("nfaults", [1, 2, 3])
@pytest.mark.parametrize("algorithm",
                         ["msa-native", "hash-native", "esc", "msa-loop"])
def test_engine_kernel_fault_degrades_to_loop_tier(rng, algorithm, nfaults,
                                                   when):
    # each fault drops one rung (native → fused → loop); the native keys
    # walk the same ladder with the compiled tier off, since their faces
    # delegate to the fused kernels. "plan-hit" names the repeat of an
    # already-served request (a plan-cache hit before the engine went
    # one-phase): skip=1 lets the first request through, so the faults
    # land on the repeat, which walks the same ladder.
    skip = 1 if when == "plan-hit" else 0
    eng, (A, B, M) = _faulted_engine(rng, FaultPlan([FaultSpec(
        site="engine.kernel", action="error", count=nfaults, skip=skip)]))
    want = _reference_result(A, B, M)
    req = Request(a="A", b="B", mask="M", algorithm=algorithm, phases=2)
    try:
        if skip:
            warm = eng.submit(req)
            _assert_identical(warm.result, want)
            assert warm.stats.kernel_tier == kernel_tier(algorithm)
        resp = eng.submit(req)
        assert eng.stats.computed == 1 + skip
        _assert_identical(resp.result, want)
        tier, edges = _expected_ladder(algorithm, nfaults)
        assert resp.stats.kernel_tier == tier
        assert _degrade_edges(eng) == edges
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# deadlines through the engine
# ---------------------------------------------------------------------- #
def test_expired_deadline_shed_before_any_work(rng):
    eng = Engine()
    A, B, M = make_triple(rng, m=20, k=15, n=20)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    try:
        req = Request(a="A", b="B", mask="M", phases=2, deadline_ms=50)
        req._deadline = Deadline(time.monotonic() - 1.0)  # already spent
        with pytest.raises(DeadlineExceeded) as ei:
            eng.submit(req)
        assert ei.value.stage == "engine"
        assert eng._deadline_total.value(stage="engine") == 1
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# async server: queue sheds and follower attribution
# ---------------------------------------------------------------------- #
def test_deadline_sheds_queued_work(rng):
    # one worker, a slow request in front (injected 0.3 s kernel stall),
    # and a 60 ms-deadline request stuck behind it in the queue
    eng = Engine(faults=FaultPlan(["engine.kernel:slow:1:0.3"]))
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    slow = Request(a="A", b="B", mask="M", phases=2, tag="slow")
    shed = Request(a="A", b="B", mask="M", phases=2, tag="shed",
                   deadline_ms=60)

    async def main():
        async with AsyncServer(eng, workers=1, dedup=False) as srv:
            results = await asyncio.gather(srv.submit(slow),
                                           srv.submit(shed),
                                           return_exceptions=True)
        return results, srv

    try:
        (slow_res, shed_res), srv = asyncio.run(main())
        assert not isinstance(slow_res, BaseException)
        _assert_identical(slow_res.result, _reference_result(A, B, M))
        assert isinstance(shed_res, DeadlineExceeded)
        assert shed_res.stage in ("queue", "submit", "admission")
        assert srv.stats.shed == 1
        assert srv.stats.completed == 1
    finally:
        eng.close()


def test_follower_gets_own_deadline_not_the_primaries(rng):
    # a coalesced follower whose own budget expires while awaiting the
    # (undeadlined, slow) primary is shed with stage="follower"; the
    # primary still completes
    eng = Engine(faults=FaultPlan(["engine.kernel:slow:1:0.4"]))
    A, B, M = make_triple(rng, m=30, k=25, n=30)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    primary = Request(a="A", b="B", mask="M", phases=2)
    follower = Request(a="A", b="B", mask="M", phases=2, deadline_ms=100)

    async def main():
        async with AsyncServer(eng, workers=1) as srv:
            t1 = asyncio.ensure_future(srv.submit(primary))
            await asyncio.sleep(0.05)  # primary is in flight
            t2 = asyncio.ensure_future(srv.submit(follower))
            return await asyncio.gather(t1, t2,
                                        return_exceptions=True), srv

    try:
        (prim_res, foll_res), srv = asyncio.run(main())
        assert not isinstance(prim_res, BaseException)
        _assert_identical(prim_res.result, _reference_result(A, B, M))
        assert isinstance(foll_res, DeadlineExceeded)
        assert foll_res.stage == "follower"
        assert srv.stats.shed == 1
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# shutdown under injected failure: no stranded futures
# ---------------------------------------------------------------------- #
def test_close_during_failures_strands_nothing(rng):
    eng, (A, B, M) = _faulted_engine(
        rng, FaultPlan(["engine.kernel:error:3"]))
    want = _reference_result(A, B, M)
    reqs = [Request(a="A", b="B", mask="M", phases=2, tag=str(i))
            for i in range(4)]

    async def main():
        async with AsyncServer(eng, workers=2, dedup=False) as srv:
            tasks = [asyncio.ensure_future(srv.submit(r)) for r in reqs]
            await asyncio.sleep(0.05)  # faults land while these are live
            # __aexit__ drains the queue; every submitted future must
            # resolve — bound the wait so a strand fails instead of hanging
            return await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 60), srv

    try:
        results, srv = asyncio.run(main())
        assert len(results) == 4
        for r in results:
            assert not isinstance(r, BaseException), r
            _assert_identical(r.result, want)
        assert srv.stats.completed == 4
        assert eng.faults.fired_total() == 3
    finally:
        eng.close()


# ---------------------------------------------------------------------- #
# liveness/readiness endpoints
# ---------------------------------------------------------------------- #
def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def test_healthz_readyz_follow_readiness():
    up = {"ready": True}
    with ObsHTTPServer(MetricsRegistry(),
                       ready=lambda: up["ready"]) as obs:
        assert _get(f"{obs.url}/healthz") == (200, "ok\n")
        assert _get(f"{obs.url}/readyz") == (200, "ready\n")
        up["ready"] = False
        assert _get(f"{obs.url}/readyz")[0] == 503
        assert _get(f"{obs.url}/healthz")[0] == 200  # alive though not ready


def test_readyz_without_probe_and_with_dying_probe():
    with ObsHTTPServer(MetricsRegistry()) as obs:  # no probe: always ready
        assert _get(f"{obs.url}/readyz")[0] == 200

    def dying():
        raise RuntimeError("probe crashed")

    with ObsHTTPServer(MetricsRegistry(), ready=dying) as obs:
        assert _get(f"{obs.url}/readyz")[0] == 503


def test_engine_ready_flips_on_close():
    eng = Engine()
    assert eng.ready()
    eng.close()
    assert not eng.ready()


# ---------------------------------------------------------------------- #
# chaos × deltas: a kernel fault on the first post-delta request
# ---------------------------------------------------------------------- #
def test_kernel_fault_after_delta_degrades_bit_identically(rng):
    """A pattern delta swaps the operand; failing the kernel on the very
    next request, which computes the new pattern, must walk the ladder and
    still serve the *post-delta* product bit-identically."""
    from repro.delta import DeltaBatch

    algorithm = "msa-native" if native_available() else "msa"
    nfaults = 2 if native_available() else 1  # enough to reach the loop
    eng, (A, B, M) = _faulted_engine(rng, FaultPlan([FaultSpec(
        site="engine.kernel", action="error", count=nfaults, skip=1)]))
    req = Request(a="A", b="B", mask="M", algorithm=algorithm, phases=2)
    try:
        warm = eng.submit(req)  # skip=1 let the warm-up through
        assert warm.stats.kernel_tier == kernel_tier(algorithm)
        rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
        out = eng.apply_delta("A", DeltaBatch(
            delete=[(int(rows[i]), int(A.indices[i])) for i in range(4)]))
        assert out.kind == "pattern"
        post_A = eng.entry("A").value

        resp = eng.submit(req)
        assert resp.stats.serving_tier == "computed"
        want = _reference_result(post_A, B, M)
        _assert_identical(resp.result, want)
        tier, edges = _expected_ladder(algorithm, nfaults)
        assert tier == "loop" and resp.stats.kernel_tier == tier
        assert _degrade_edges(eng) == edges
        # faults spent: the next request is back on the top rung, same bytes
        resp2 = eng.submit(req)
        assert resp2.stats.kernel_tier == kernel_tier(algorithm)
        _assert_identical(resp2.result, want)
    finally:
        eng.close()
