"""Async serving path — throughput/latency by cache tier + result-hit gate.

The serving claim (ROADMAP): a stream of repeated requests should get
cheaper once the result cache holds the product. Three modes are measured
on the repeated-mask TC workload:

* **cold** — every request computed by calling :meth:`Engine.submit`
  directly (no server, no result cache); its first output is the
  bit-identity baseline;
* **one-phase** — the same requests with ``phases=1`` through the server,
  result cache off: every request runs the numeric pass, the best real
  alternative to caching results;
* **result-hit** — result cache on and populated: memoized CSR out, no
  numeric pass at all.

The engine serves ``phases=2`` one-phase too, so ``cold`` and ``one-phase``
differ only by the server in front. ``one-phase`` and ``result-hit`` go
through the real async front end (:class:`repro.service.AsyncServer` —
admission queue, worker pool, one request per worker), each primed with
one request first. Every mode is timed the same way, as
``total_seconds - queued_seconds`` per request: fingerprinting, cache
probes and the numeric pass count, waiting in the admission queue does
not.

The **result-hit gate** requires the result-hit mean to be at least 1.5×
faster than the one-phase mean, with every response bit-identical to the
cold run.

``main()`` appends one run to ``BENCH_service.json`` at the repo root — the
perf-trajectory artifact documented in ``benchmarks/common.py`` and
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, latest_trajectory_run, tc_workload
from repro.bench import render_table
from repro.bench.metrics import latency_percentiles
from repro.graphs import load_graph
from repro.service import AsyncServer, Engine, Request, serve_all

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: acceptance gate: result-hit serving vs one-phase serving, mean latency
GATE_MIN_SPEEDUP = 1.5
GATE_MODE = "result-hit-gate"

GRAPHS = ("rmat-s8-e4", "rmat-s9-e8")
#: the fused hash kernel, asked for two-phase (served one-phase)
ALGO, PHASES, REQUESTS = "hash", 2, 24


def _engine_for(L, mask, **kw) -> Engine:
    eng = Engine(**kw)
    eng.register("L", L)
    eng.register("M", mask)
    return eng


def _request(tag: str, phases: int = PHASES) -> Request:
    return Request(a="L", b="L", mask="M", algorithm=ALGO, phases=phases,
                   semiring="plus_pair", tag=tag)


def _serve_stream(engine: Engine, n_requests: int, *, workers=1,
                  phases: int = PHASES):
    """Serve a repeated-mask stream through the async front end; returns
    (responses, wall seconds). One worker by default: per-request latency
    then reflects the kernel, not contention between worker threads.
    Dedup is off: this bench measures what each cache *tier* costs per
    request, and coalescing identical in-flight requests would collapse the
    stream into one execution (``repro serve`` reports it as "coalesced")."""
    reqs = [_request(str(i), phases) for i in range(n_requests)]

    async def run():
        t0 = time.perf_counter()
        async with AsyncServer(engine, workers=workers,
                               dedup=False) as srv:
            resps = await serve_all(srv, reqs)
        return resps, time.perf_counter() - t0

    return asyncio.run(run())


def _service_seconds(resp) -> float:
    """Per-request latency every mode is timed by: the request's total time
    minus what it spent waiting in the admission queue."""
    return resp.stats.total_seconds - resp.stats.queued_seconds


def _mode_row(case, mode, latencies, wall_seconds, n):
    pct = latency_percentiles(latencies, percentiles=(50, 95))
    mean = float(np.mean(latencies))
    return {"case": case, "mode": mode, "requests": n,
            "wall_seconds": wall_seconds, "rps": n / wall_seconds,
            "mean_ms": mean * 1e3, "p50_ms": pct[50] * 1e3,
            "p95_ms": pct[95] * 1e3}


def _bench_case(gname: str):
    """One graph's three serving modes + the result-hit gate. Returns
    (result rows, gate row)."""
    L, mask = tc_workload(load_graph(gname))
    case = f"tc-{gname}-{ALGO}{PHASES}p"

    # -- cold: direct submits, every request computed
    eng_cold = _engine_for(L, mask)
    cold_lat = []
    baseline = None
    for i in range(max(REQUESTS // 3, 6)):
        resp = eng_cold.submit(_request(f"cold{i}"))
        cold_lat.append(_service_seconds(resp))
        if baseline is None:
            baseline = resp.result
    cold = _mode_row(case, "cold", cold_lat, float(np.sum(cold_lat)),
                     len(cold_lat))

    def stream_mode(mode, phases=PHASES, **engine_kw):
        eng = _engine_for(L, mask, **engine_kw)
        eng.submit(_request("prime", phases))
        resps, wall = _serve_stream(eng, REQUESTS, phases=phases)
        identical = all(r.result.equals(baseline) for r in resps)
        return resps, identical, _mode_row(
            case, mode, [_service_seconds(r) for r in resps], wall,
            len(resps))

    # -- one-phase: every request computed, result tier off
    _, one_identical, one = stream_mode("one-phase", phases=1)
    # -- result-hit: full numeric memoization
    resps, res_identical, res = stream_mode(
        "result-hit", result_cache_bytes=256 << 20)
    assert all(r.stats.result_cache_hit for r in resps)

    identical = one_identical and res_identical
    speedup = one["mean_ms"] / res["mean_ms"]
    gate = {"case": case, "mode": GATE_MODE, "requests": REQUESTS,
            "one_phase_mean_ms": one["mean_ms"],
            "result_hit_mean_ms": res["mean_ms"],
            "speedup_vs_one_phase": speedup,
            "bit_identical": identical, "gate_min": GATE_MIN_SPEEDUP,
            "gate_pass": bool(identical and speedup >= GATE_MIN_SPEEDUP)}
    return [cold, one, res], gate


def main() -> None:
    emit("[Serve] async front-end throughput/latency by cache tier "
         f"(repeated-mask TC, {ALGO})")
    emit("cold = numeric pass (direct submit); one-phase = numeric pass "
         "through the server; result-hit = memoized CSR output\n")
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

    emit("\n[Serve] result-hit gate: result-hit vs one-phase serving")
    rows = [[g["case"], g["one_phase_mean_ms"], g["result_hit_mean_ms"],
             g["speedup_vs_one_phase"],
             "yes" if g["bit_identical"] else "NO",
             "PASS" if g["gate_pass"] else "FAIL"] for g in gates]
    emit(render_table(["case", "one-phase (ms)", "result-hit (ms)",
                       "speedup", "identical",
                       f"gate ≥{GATE_MIN_SPEEDUP}x"], rows))

    prev = latest_trajectory_run(ARTIFACT, bench="serve_throughput")
    append_trajectory_run(ARTIFACT, "serve_throughput", results)
    emit(f"\nappended run to {ARTIFACT.name} ({len(results)} results)")
    if prev is not None:
        drift = {r["case"]: r["speedup_vs_one_phase"] for r in prev["results"]
                 if r.get("mode") == GATE_MODE}
        for g in gates:
            if g["case"] in drift:
                emit(f"  result-hit speedup drift [{g['case']}]: "
                     f"{drift[g['case']]:.2f}x → "
                     f"{g['speedup_vs_one_phase']:.2f}x")
    if all(g["gate_pass"] for g in gates):
        emit("acceptance gate: every result-hit stream beat one-phase "
             f"serving by ≥{GATE_MIN_SPEEDUP}x, bit-identical → PASS")
    else:
        emit("acceptance gate: FAIL")
        raise SystemExit(1)


# ----------------------------------------------------------------------- #
# pytest-benchmark faces (`pytest benchmarks/ --benchmark-only -k serve`)
# ----------------------------------------------------------------------- #
def test_serve_computed_stream(benchmark, tc_small):
    L, mask = tc_small
    eng = _engine_for(L, mask)
    first = eng.submit(_request("prime")).result
    resps, _ = benchmark.pedantic(lambda: _serve_stream(eng, 8),
                                  rounds=3, warmup_rounds=1)
    assert all(r.stats.serving_tier == "computed" for r in resps)
    assert all(r.result.equals(first) for r in resps)


def test_serve_result_hit_stream(benchmark, tc_small):
    L, mask = tc_small
    eng = _engine_for(L, mask, result_cache_bytes=64 << 20)
    eng.submit(_request("prime"))
    resps, _ = benchmark.pedantic(lambda: _serve_stream(eng, 8),
                                  rounds=3, warmup_rounds=1)
    assert all(r.stats.result_cache_hit for r in resps)


if __name__ == "__main__":
    main()
