"""Observability overhead — computed-request serving latency, tracing on
vs off.

The observability claim: phase-level tracing and the metrics registry must
be cheap enough to leave on in production. Every request that misses the
result cache runs the same path — ``auto``/key resolution, then the
one-phase numeric pass — and pays a handful of span context managers
(numeric, degrade when it fires), a trace-record allocation in the tracer
ring, and the histogram observations. That fixed cost is largest relative
to the work on a small product, so gating on one bounds the worst case.

Protocol: one engine per mode (``tracing=True`` / ``tracing=False``), same
repeated-mask TC workload (the fused hash kernel, asked for two-phase and
served one-phase, on a suite R-MAT graph), result cache off, one untimed
submit first, then the mean per-request latency over a long stream,
best-of-repeats. The tracing-on engine carries the full v2
diagnosis stack (ISSUE 10): a declared SLO (so every request-latency
observation also maintains exemplar slots the evaluator reads) on top of
the always-attached flight recorder's per-request ring note, which both
modes pay. Gate: tracing-on adds **< 3%**.

``main()`` appends a run to ``BENCH_service.json`` at the repo root (bench
tag ``obs_overhead``) — the perf-trajectory artifact documented in
``benchmarks/common.py`` and ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import time
from pathlib import Path

from common import append_trajectory_run, emit, tc_workload
from repro.bench import render_table
from repro.graphs import load_graph
from repro.obs import parse_slo
from repro.service import Engine, Request

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: acceptance gate: per-request latency penalty with tracing enabled
GATE_MAX_OVERHEAD = 0.03

GRAPH, ALGO, PHASES = "rmat-s9-e8", "hash", 2
WARM_REQUESTS, REPEATS = 300, 3


def _engine(L, mask, *, tracing: bool) -> Engine:
    # result cache off: every request computes. Tracing-on carries the
    # declared SLO so the run prices the whole diagnosis stack (exemplar
    # slots, flight-recorder ring notes, chunk-observer sink).
    slos = [parse_slo("p99=50ms:0.99")] if tracing else None
    eng = Engine(tracing=tracing, slos=slos)
    eng.register("L", L)
    eng.register("M", mask)
    return eng


def _request(tag: str = "") -> Request:
    return Request(a="L", b="L", mask="M", algorithm=ALGO, phases=PHASES,
                   semiring="plus_pair", tag=tag)


def measure_warm_latency(L, mask, *, tracing: bool,
                         requests: int = WARM_REQUESTS,
                         repeats: int = REPEATS) -> float:
    """Mean seconds/request, best of ``repeats`` timed streams."""
    eng = _engine(L, mask, tracing=tracing)
    try:
        eng.submit(_request("first"))  # untimed: first-call costs
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for i in range(requests):
                eng.submit(_request(str(i)))
            best = min(best, (time.perf_counter() - t0) / requests)
        # every timed request ran the numeric pass
        assert eng.stats.computed == 1 + requests * repeats
        return best
    finally:
        eng.close()


def main() -> None:
    emit("[Obs overhead] computed-request serving latency, tracing on vs "
         "off")
    emit(f"case: tc {GRAPH} {ALGO} (phases={PHASES}, served one-phase), "
         f"{WARM_REQUESTS} requests x {REPEATS} repeats (best mean)\n")
    L, mask = tc_workload(load_graph(GRAPH))
    case = f"tc-{GRAPH}-{ALGO}2p"

    t_off = measure_warm_latency(L, mask, tracing=False)
    t_on = measure_warm_latency(L, mask, tracing=True)
    overhead = t_on / t_off - 1.0

    results = [
        {"case": case, "mode": "tracing-off", "requests": WARM_REQUESTS,
         "mean_ms": t_off * 1e3, "overhead_vs_off": 0.0},
        {"case": case, "mode": "tracing-on", "requests": WARM_REQUESTS,
         "mean_ms": t_on * 1e3, "overhead_vs_off": overhead,
         "gate_max": GATE_MAX_OVERHEAD,
         "gate_pass": bool(overhead < GATE_MAX_OVERHEAD)},
    ]
    emit(render_table(
        ["case", "mode", "mean (ms)", "overhead"],
        [[case, "tracing-off", t_off * 1e3, 0.0],
         [case, "tracing-on", t_on * 1e3, overhead]]))

    append_trajectory_run(ARTIFACT, "obs_overhead", results)
    emit(f"\nappended run to {ARTIFACT.name} ({len(results)} results)")

    verdict = "PASS" if overhead < GATE_MAX_OVERHEAD else "FAIL"
    emit(f"acceptance gate [tracing overhead]: {overhead * 100:+.2f}% "
         f"(need < {GATE_MAX_OVERHEAD * 100:.0f}%) → {verdict}")


# ----------------------------------------------------------------------- #
# pytest-benchmark faces (`pytest benchmarks/ --benchmark-only -k obs`)
# ----------------------------------------------------------------------- #
def _warm_engine(tracing: bool):
    L, mask = tc_workload(load_graph("rmat-s8-e4"))
    eng = _engine(L, mask, tracing=tracing)
    eng.submit(_request("first"))
    return eng


def test_obs_overhead_tracing_off(benchmark):
    eng = _warm_engine(False)
    try:
        resp = benchmark.pedantic(lambda: eng.submit(_request()),
                                  rounds=20, warmup_rounds=3)
        assert resp.stats.serving_tier == "computed"
        assert resp.stats.trace_id == ""
    finally:
        eng.close()


def test_obs_overhead_tracing_on(benchmark):
    eng = _warm_engine(True)
    try:
        resp = benchmark.pedantic(lambda: eng.submit(_request()),
                                  rounds=20, warmup_rounds=3)
        assert resp.stats.serving_tier == "computed" and resp.stats.trace_id
        rec = eng.tracer.get(resp.stats.trace_id)
        assert rec is not None and rec.find("numeric")
    finally:
        eng.close()


if __name__ == "__main__":
    main()
