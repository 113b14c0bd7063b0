"""Async serving path — throughput/latency by cache tier + warm-restart gate.

The serving claim (ISSUE 3 / ROADMAP): a request stream under a repeated
mask pattern should get monotonically cheaper as it climbs the cache
hierarchy, and warm plans should survive a process restart. Three modes are
measured through the real async front end (:class:`repro.service.AsyncServer`
— admission queue, worker pool, one request per worker), all on the
repeated-mask TC workload:

* **cold** — every request pays plan build (auto-select + symbolic) +
  numeric pass (plan cache cleared between requests);
* **warm-plan** — plans cached, result cache off: numeric pass only;
* **result-hit** — result cache on and populated: memoized CSR out, no
  numeric pass at all.

The **warm-restart gate** (the ISSUE acceptance criterion) then exercises
persistence end to end: serve a stream cold, ``save_plans`` to an ``.npz``
store, restore into a *fresh* engine, re-serve, and require **100% plan
hits** plus **≥1.5× mean-latency speedup** over the cold path. Every mode's
responses are checked bit-identical against the cold run before timings are
recorded.

``main()`` appends one run to ``BENCH_service.json`` at the repo root — the
perf-trajectory artifact documented in ``benchmarks/common.py`` and
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, latest_trajectory_run, tc_workload
from repro.bench import render_table
from repro.bench.metrics import latency_percentiles
from repro.graphs import load_graph
from repro.service import AsyncServer, Engine, Request, serve_all

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: acceptance gate (ISSUE 3): restored-plan serving vs the cold path
GATE_MIN_SPEEDUP = 1.5

GRAPHS = ("rmat-s8-e4", "rmat-s9-e8")
#: hash-2P is the symbolic-heavy scheme — the regime plan caching targets
ALGO, PHASES, REQUESTS = "hash", 2, 24


def _engine_for(L, mask, **kw) -> Engine:
    eng = Engine(**kw)
    eng.register("L", L)
    eng.register("M", mask)
    return eng


def _request(tag: str) -> Request:
    return Request(a="L", b="L", mask="M", algorithm=ALGO, phases=PHASES,
                   semiring="plus_pair", tag=tag)


def _serve_stream(engine: Engine, n_requests: int, *, workers=1):
    """Serve a repeated-mask stream through the async front end; returns
    (responses, wall seconds). One worker by default: per-request latency
    then reflects the kernel, not contention between worker threads.
    Dedup is off: this bench measures what each cache *tier* costs per
    request, and coalescing identical in-flight requests would collapse the
    stream into one execution (it has its own telemetry in `serve --smoke`)."""
    reqs = [_request(str(i)) for i in range(n_requests)]

    async def run():
        t0 = time.perf_counter()
        async with AsyncServer(engine, workers=workers,
                               dedup=False) as srv:
            resps = await serve_all(srv, reqs)
        return resps, time.perf_counter() - t0

    return asyncio.run(run())


def _mode_row(case, mode, latencies, wall_seconds, n):
    pct = latency_percentiles(latencies, percentiles=(50, 95))
    mean = float(np.mean(latencies))
    return {"case": case, "mode": mode, "requests": n,
            "wall_seconds": wall_seconds, "rps": n / wall_seconds,
            "mean_ms": mean * 1e3, "p50_ms": pct[50] * 1e3,
            "p95_ms": pct[95] * 1e3}


def _bench_case(gname: str):
    """One graph's three serving modes + the warm-restart gate. Returns
    (result rows, gate row)."""
    L, mask = tc_workload(load_graph(gname))
    case = f"tc-{gname}-{ALGO}{PHASES}p"

    # -- cold: plan cache cleared between requests, so every request pays
    # the symbolic pass (this is the baseline the gate compares against)
    eng_cold = _engine_for(L, mask)
    cold_lat = []
    baseline = None
    for i in range(max(REQUESTS // 3, 6)):
        eng_cold.plans.clear()
        resp = eng_cold.submit(_request(f"cold{i}"))
        cold_lat.append(resp.stats.total_seconds)
        if baseline is None:
            baseline = resp.result
    cold = _mode_row(case, "cold", cold_lat, float(np.sum(cold_lat)),
                     len(cold_lat))

    # -- warm-plan: plans stay cached, result tier off
    eng_warm = _engine_for(L, mask)
    eng_warm.submit(_request("prime"))
    resps, wall = _serve_stream(eng_warm, REQUESTS)
    assert all(r.stats.plan_cache_hit for r in resps)
    assert all(r.result.equals(baseline) for r in resps)
    warm = _mode_row(case, "warm-plan",
                     [r.stats.numeric_seconds + r.stats.plan_seconds
                      for r in resps], wall, len(resps))

    # -- result-hit: full numeric memoization
    eng_res = _engine_for(L, mask, result_cache_bytes=256 << 20)
    eng_res.submit(_request("prime"))
    resps, wall = _serve_stream(eng_res, REQUESTS)
    assert all(r.stats.result_cache_hit for r in resps)
    assert all(r.result.equals(baseline) for r in resps)  # bit-identical
    res = _mode_row(case, "result-hit",
                    [r.stats.total_seconds - r.stats.queued_seconds
                     for r in resps], wall, len(resps))

    # -- warm-restart gate: persist → fresh engine → restore → 100% hits
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = Path(tmp) / "plans.npz"
        saved = eng_warm.save_plans(plan_path)
        restarted = _engine_for(L, mask)
        restored = restarted.load_plans(plan_path)
        resps, wall = _serve_stream(restarted, REQUESTS)
    assert all(r.result.equals(baseline) for r in resps)
    hit_rate = restarted.stats.plan_hit_rate
    warm_mean = float(np.mean([r.stats.numeric_seconds + r.stats.plan_seconds
                               for r in resps]))
    speedup = cold["mean_ms"] / (warm_mean * 1e3)
    gate = {"case": case, "mode": "warm-restart", "requests": len(resps),
            "plans_restored": restored, "plans_saved": saved,
            "plan_hit_rate": hit_rate, "cold_mean_ms": cold["mean_ms"],
            "warm_mean_ms": warm_mean * 1e3, "speedup_vs_cold": speedup,
            "gate_min": GATE_MIN_SPEEDUP,
            "gate_pass": bool(hit_rate == 1.0
                              and speedup >= GATE_MIN_SPEEDUP)}
    return [cold, warm, res], gate


def main() -> None:
    emit("[Serve] async front-end throughput/latency by cache tier "
         f"(repeated-mask TC, {ALGO}-{PHASES}P)")
    emit("cold = plan build + numeric; warm-plan = cached plan, numeric "
         "only; result-hit = memoized CSR output\n")
    results, rows, gates = [], [], []
    for gname in GRAPHS:
        mode_rows, gate = _bench_case(gname)
        results.extend(mode_rows + [gate])
        gates.append(gate)
        for r in mode_rows:
            rows.append([r["case"], r["mode"], r["requests"], r["rps"],
                         r["mean_ms"], r["p50_ms"], r["p95_ms"]])
    emit(render_table(["case", "mode", "reqs", "req/s", "mean (ms)",
                       "p50 (ms)", "p95 (ms)"], rows))

    emit("\n[Serve] warm-restart gate: persisted plans restored into a "
         "fresh engine")
    rows = [[g["case"], g["plans_restored"], f"{100 * g['plan_hit_rate']:.0f}%",
             g["cold_mean_ms"], g["warm_mean_ms"], g["speedup_vs_cold"],
             "PASS" if g["gate_pass"] else "FAIL"] for g in gates]
    emit(render_table(["case", "plans", "plan hits", "cold (ms)",
                       "restarted (ms)", "speedup", "gate ≥1.5x"], rows))

    prev = latest_trajectory_run(ARTIFACT, bench="serve_throughput")
    append_trajectory_run(ARTIFACT, "serve_throughput", results)
    emit(f"\nappended run to {ARTIFACT.name} ({len(results)} results)")
    if prev is not None:
        drift = {r["case"]: r["speedup_vs_cold"] for r in prev["results"]
                 if r.get("mode") == "warm-restart"}
        for g in gates:
            if g["case"] in drift:
                emit(f"  restart-speedup drift [{g['case']}]: "
                     f"{drift[g['case']]:.2f}x → {g['speedup_vs_cold']:.2f}x")
    if all(g["gate_pass"] for g in gates):
        emit("acceptance gate: every warm restart served 100% plan hits at "
             f"≥{GATE_MIN_SPEEDUP}x over cold → PASS")
    else:
        emit("acceptance gate: FAIL")
        raise SystemExit(1)


# ----------------------------------------------------------------------- #
# pytest-benchmark faces (`pytest benchmarks/ --benchmark-only -k serve`)
# ----------------------------------------------------------------------- #
def test_serve_warm_stream(benchmark, tc_small):
    L, mask = tc_small
    eng = _engine_for(L, mask)
    eng.submit(_request("prime"))
    resps, _ = benchmark.pedantic(lambda: _serve_stream(eng, 8),
                                  rounds=3, warmup_rounds=1)
    assert all(r.stats.plan_cache_hit for r in resps)


def test_serve_result_hit_stream(benchmark, tc_small):
    L, mask = tc_small
    eng = _engine_for(L, mask, result_cache_bytes=64 << 20)
    eng.submit(_request("prime"))
    resps, _ = benchmark.pedantic(lambda: _serve_stream(eng, 8),
                                  rounds=3, warmup_rounds=1)
    assert all(r.stats.result_cache_hit for r in resps)


if __name__ == "__main__":
    main()
