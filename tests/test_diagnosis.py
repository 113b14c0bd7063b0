"""Tests for the diagnosis layer (repro.obs v2): declarative SLOs with
multi-window burn-rate alerting, OpenMetrics trace exemplars on the latency
histograms, the failure flight recorder (ring + debug bundles on resilience
edges), and the span-scoped sampling profiler — plus the call-site timing
satellite (chunk/scatter histograms populated with tracing off,
bit-identical to the spans with tracing on)."""

import json
import time
import urllib.request

import pytest

from conftest import make_triple
from repro.obs import (
    MetricsRegistry,
    ObsHTTPServer,
    SamplingProfiler,
    Tracer,
    capture,
    parse_exposition,
    parse_slo,
    span,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.slo import SLOEvaluator
from repro.resilience import DeadlineExceeded, FaultPlan
from repro.parallel import SerialExecutor
from repro.service import Engine, Request
from repro.sparse import csr_random


# ---------------------------------------------------------------------- #
# SLO spec parsing
# ---------------------------------------------------------------------- #
def test_parse_slo_latency_and_availability():
    o = parse_slo("p99=50ms:0.99")
    assert (o.name, o.kind) == ("p99", "latency")
    assert o.threshold == pytest.approx(0.05)
    assert o.target == 0.99 and o.budget == pytest.approx(0.01)
    assert parse_slo("slow=1.5s:0.9").threshold == pytest.approx(1.5)
    assert parse_slo("tail=250us:0.5").threshold == pytest.approx(250e-6)
    a = parse_slo("availability=0.999")
    assert a.kind == "availability" and a.target == 0.999
    assert parse_slo("avail=0.9").kind == "availability"


@pytest.mark.parametrize("bad", [
    "p99",                 # no '='
    "p99=50ms",            # latency without a target
    "p99=50lightyears:0.9",  # unknown unit
    "p99=50ms:1.0",        # target of 1 has no budget to burn
    "p99=50ms:0",          # target must be positive
    "=50ms:0.9",           # empty name
])
def test_parse_slo_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_slo(bad)


# ---------------------------------------------------------------------- #
# exemplars: histogram slots → OpenMetrics syntax → parse round-trip
# ---------------------------------------------------------------------- #
def test_exemplar_round_trip_through_exposition():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", "lat", labels=("op",),
                      buckets=(0.01, 0.1, 1.0))
    h.observe_traced(0.05, "r1", op="x")
    h.observe_traced(0.07, "r2", op="x")  # same bucket — latest wins
    h.observe_traced(5.0, "r3", op="x")   # above top bucket → +Inf slot
    h.observe_traced(0.005, None, op="x")  # untraced: no exemplar slot
    samples, exemplars = parse_exposition(reg.render(),
                                          return_exemplars=True)
    by_le = {dict(key)["le"]: ex for key, ex
             in exemplars["repro_lat_seconds_bucket"].items()}
    pairs, value, ts = by_le["0.1"]
    assert dict(pairs)["trace_id"] == "r2"  # r1 overwritten, bounded slot
    assert value == pytest.approx(0.07)
    assert ts is not None and ts > 0
    assert dict(by_le["+Inf"][0])["trace_id"] == "r3"
    assert "0.01" not in by_le  # the untraced observation left no exemplar
    # exposition values are unaffected by exemplar suffixes
    assert samples["repro_lat_seconds_count"][(("op", "x"),)] == 4.0
    # direct views agree with what the exposition said
    assert h.exemplars(op="x")[0.1][0] == "r2"
    assert {e[0] for e in h.exemplars_above(0.01)} == {"r2", "r3"}


def test_observe_resolves_active_trace_implicitly():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", "lat", buckets=(0.01, 1.0))
    tracer = Tracer()
    with tracer.trace("r42"):
        h.observe(0.5)
    h.observe(0.5)  # outside any trace: no exemplar churn
    assert h.exemplars()[1.0][0] == "r42"


def test_engine_latency_histograms_carry_exemplars(rng):
    # an executor routes the numeric pass through the runner's chunks
    eng = Engine(executor=SerialExecutor())
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
    _, exemplars = parse_exposition(eng.metrics.render(),
                                    return_exemplars=True)
    for family in ("repro_request_seconds_bucket",
                   "repro_phase_seconds_bucket",
                   "repro_chunk_seconds_bucket"):
        ids = {dict(pairs)["trace_id"]
               for pairs, _, _ in exemplars.get(family, {}).values()}
        assert resp.stats.trace_id in ids, family


# ---------------------------------------------------------------------- #
# burn-rate window math against a synthetic timeline
# ---------------------------------------------------------------------- #
def _make_evaluator(**kw):
    reg = MetricsRegistry()
    hist = reg.histogram("repro_request_seconds", "latency",
                         buckets=LATENCY_BUCKETS)
    clock = {"t": 0.0}
    ev = SLOEvaluator(reg, [parse_slo("p99=10ms:0.9")],
                      clock=lambda: clock["t"], **kw)
    return reg, hist, clock, ev


def test_burn_rate_windows_and_alert_lifecycle():
    reg, hist, clock, ev = _make_evaluator(alert_burn_rate=8.0)
    (s0,) = ev.evaluate()
    assert s0["windows"]["fast"]["burn_rate"] == 0.0
    assert not s0["alerting"]

    # t=10: a spike of 10 requests, all breaching the 10 ms threshold.
    # Error rate 100% against a 10% budget → burn 10x on both windows
    # (younger than either window, the baseline is process start).
    for i in range(10):
        hist.observe_traced(0.5, f"bad{i}")
    clock["t"] = 10.0
    (s1,) = ev.evaluate()
    assert s1["windows"]["fast"]["burn_rate"] == pytest.approx(10.0)
    assert s1["windows"]["slow"]["burn_rate"] == pytest.approx(10.0)
    assert s1["alerting"]  # both windows ≥ 8.0
    assert s1["threshold_bucket"] == pytest.approx(0.01)
    assert {e["trace_id"] for e in s1["exemplars"]} <= {
        f"bad{i}" for i in range(10)} and s1["exemplars"]
    alerts = reg.get("repro_slo_alerts_total")
    assert alerts.value(slo="p99") == 1.0
    assert reg.get("repro_slo_alerting").value(slo="p99") == 1.0

    # t=20: 90 fast requests dilute the window to a 10% error rate →
    # burn 1.0 (spending budget exactly at the sustainable rate)
    for _ in range(90):
        hist.observe(0.001)
    clock["t"] = 20.0
    (s2,) = ev.evaluate()
    assert s2["windows"]["fast"]["burn_rate"] == pytest.approx(1.0)
    assert s2["windows"]["slow"]["burn_rate"] == pytest.approx(1.0)
    assert not s2["alerting"]  # cleared; rising-edge counter unchanged
    assert alerts.value(slo="p99") == 1.0
    assert s2["error_budget_remaining"] == pytest.approx(0.0)

    # t=400: the spike ages out of the 5 m fast window (its baseline is
    # now the t=20 snapshot; no traffic since → fast burn 0) while the
    # 1 h slow window still sees the whole lifetime at burn 1.0 — the
    # multi-window rule: a stale spike must not page
    clock["t"] = 400.0
    (s3,) = ev.evaluate()
    assert s3["windows"]["fast"]["total"] == 0.0
    assert s3["windows"]["fast"]["burn_rate"] == 0.0
    assert s3["windows"]["slow"]["burn_rate"] == pytest.approx(1.0)
    assert not s3["alerting"]
    assert reg.get("repro_slo_burn_rate").value(
        slo="p99", window="slow") == pytest.approx(1.0)


def test_availability_objective_counts_server_outcomes():
    reg = MetricsRegistry()
    ctr = reg.counter("repro_server_requests_total", "outcomes",
                      labels=("outcome",))
    clock = {"t": 0.0}
    ev = SLOEvaluator(reg, [parse_slo("availability=0.9")],
                      clock=lambda: clock["t"])
    ctr.inc(8, outcome="completed")
    ctr.inc(1, outcome="failed")
    ctr.inc(1, outcome="shed")
    clock["t"] = 30.0
    (s,) = ev.evaluate()
    assert (s["good"], s["total"]) == (8.0, 10.0)
    # 20% failure against a 10% budget → burn 2.0
    assert s["windows"]["fast"]["burn_rate"] == pytest.approx(2.0)
    assert s["exemplars"] == []  # latency-only concept


# ---------------------------------------------------------------------- #
# flight recorder: ring, bundles, rate limiting, eviction
# ---------------------------------------------------------------------- #
def test_flight_recorder_bundle_contents(tmp_path):
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "x").inc(3)
    tracer = Tracer()
    with tracer.trace("r7"):
        with span("numeric"):
            pass
    fr = FlightRecorder(registry=reg, tracer=tracer, spool_dir=tmp_path,
                        context=lambda: {"closed": False})
    fr.note_request({"trace_id": "r7", "tier": "cold"})
    bid = fr.capture("degrade", detail="native->fused (InjectedFault)")
    assert bid is not None and "degrade" in bid
    doc = fr.bundle(bid)
    assert doc["reason"] == "degrade"
    assert doc["detail"] == "native->fused (InjectedFault)"
    assert doc["ring"] == [{"trace_id": "r7", "tier": "cold"}]
    assert "repro_x_total 3" in doc["metrics"]
    assert doc["context"] == {"closed": False}
    assert fr.bundle_path(bid).exists()
    assert fr.bundle("nope") is None


def test_flight_recorder_rate_limit_is_per_reason(tmp_path):
    fr = FlightRecorder(spool_dir=tmp_path, min_interval=10.0)
    assert fr.capture("degrade") is not None
    assert fr.capture("degrade") is None  # within min_interval: dropped
    assert fr.capture("deadline") is not None  # other reasons unaffected
    assert fr.capture("degrade", force=True) is not None  # manual override


def test_flight_recorder_evicts_oldest_bundle_files(tmp_path):
    fr = FlightRecorder(spool_dir=tmp_path, max_bundles=2)
    ids = [fr.capture(f"edge{i}", force=True) for i in range(3)]
    kept = fr.bundle_ids()
    assert kept == ids[1:]
    assert not any(tmp_path.glob(f"{ids[0]}*"))  # evicted file unlinked


def test_engine_captures_bundle_on_degrade(rng):
    eng = Engine(faults=FaultPlan.parse("engine.kernel:error:1"))
    A = csr_random(300, 300, density=0.05, rng=rng)
    M = csr_random(300, 300, density=0.05, rng=rng)
    eng.register("A", A)
    eng.register("M", M)
    try:
        resp = eng.submit(Request(a="A", b="A", mask="M", phases=2,
                                  algorithm="hash"))
        assert resp.stats.kernel_tier == "loop"  # degraded, still served
        ids = eng.flight.bundle_ids()
        degrade = [i for i in ids if "degrade" in i]
        assert degrade
        doc = eng.flight.bundle(degrade[-1])
        assert "fused->loop" in doc["detail"]
        assert doc["context"] == {"closed": False}
        assert doc["metrics"]  # a /metrics snapshot rode along
        assert doc["trace"] is not None  # the offending request's flame
    finally:
        eng.close()


def test_engine_captures_bundle_on_deadline(rng):
    eng = Engine()
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    with pytest.raises(DeadlineExceeded):
        eng.submit(Request(a="A", b="B", mask="M", phases=2,
                           deadline_ms=1e-4))
    ids = eng.flight.bundle_ids()
    assert any("deadline" in i for i in ids)
    doc = eng.flight.bundle([i for i in ids if "deadline" in i][-1])
    assert doc["detail"].startswith("stage=")


def test_request_ring_records_serving_summaries(rng):
    eng = Engine(result_cache_bytes=1 << 20)
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    for _ in range(2):
        eng.submit(Request(a="A", b="B", mask="M", phases=2))
    ring = eng.flight.ring()
    assert [e["tier"] for e in ring] == ["computed", "result"]
    assert ring[0]["kernel_tier"] and ring[1]["kernel_tier"] == ""
    assert all(e["trace_id"] and e["total_seconds"] >= 0 for e in ring)


# ---------------------------------------------------------------------- #
# sampling profiler
# ---------------------------------------------------------------------- #
def _spin(seconds: float) -> int:
    x = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        x += 1
    return x


def test_profiler_finds_known_hot_function():
    prof = SamplingProfiler(interval=0.001)
    with prof:
        _spin(0.3)
    out = prof.collapsed()
    assert prof.samples > 0
    assert "_spin" in out
    for line in out.splitlines():  # collapsed format: "f1;f2;f3 count"
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0


def test_profiler_scopes_samples_to_named_spans():
    prof = SamplingProfiler(interval=0.001, spans=("hot",))
    with prof:
        with capture("t"):
            _spin(0.1)  # outside the span: must not be attributed
            with span("hot"):
                _spin(0.2)
    out = prof.collapsed()
    assert out, "no samples landed inside the span"
    assert all(line.startswith("span:hot;") for line in out.splitlines())


def test_profiler_lifecycle_guards():
    prof = SamplingProfiler(interval=0.01)
    prof.start()
    with pytest.raises(RuntimeError):
        prof.start()
    prof.stop()
    prof.stop()  # idempotent


# ---------------------------------------------------------------------- #
# call-site timing satellite: histograms populate with tracing OFF and
# stay bit-identical to the spans with tracing ON
# ---------------------------------------------------------------------- #
def test_chunk_histogram_populates_with_tracing_off(rng):
    eng = Engine(tracing=False, executor=SerialExecutor())
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    eng.submit(Request(a="A", b="B", mask="M", phases=2))
    families = parse_exposition(eng.metrics.render())
    assert sum(families["repro_chunk_seconds_count"].values()) >= 1.0
    assert len(eng.tracer) == 0  # no trace machinery was involved


def test_chunk_histogram_bit_identical_to_spans(rng):
    eng = Engine(executor=SerialExecutor())
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
    rec = eng.tracer.get(resp.stats.trace_id)
    span_total = sum(s.t1 - s.t0 for s in rec.find("chunk"))
    hist = eng.metrics.get("repro_chunk_seconds")
    assert hist.total_count() == len(rec.find("chunk")) >= 1
    assert hist.total_sum() == pytest.approx(span_total, rel=1e-9)


# ---------------------------------------------------------------------- #
# sidecar routes: /slo, /debug/bundles, /profile
# ---------------------------------------------------------------------- #
def test_http_sidecar_serves_diagnosis_routes(tmp_path):
    reg = MetricsRegistry()
    hist = reg.histogram("repro_request_seconds", "latency",
                         buckets=LATENCY_BUCKETS)
    tracer = Tracer()
    with tracer.trace("r1"):
        with span("numeric"):
            pass
    hist.observe_traced(0.5, "r1")
    slo = SLOEvaluator(reg, [parse_slo("p99=10ms:0.9")], tracer=tracer)
    flight = FlightRecorder(registry=reg, tracer=tracer, spool_dir=tmp_path)
    bid = flight.capture("degrade", detail="test")
    with ObsHTTPServer(reg, tracer, slo=slo, flight=flight) as obs:
        with urllib.request.urlopen(f"{obs.url}/slo", timeout=5) as r:
            doc = json.loads(r.read())
        (s,) = doc["slos"]
        assert s["slo"] == "p99"
        assert s["exemplars"][0]["trace_id"] == "r1"
        with urllib.request.urlopen(f"{obs.url}/debug/bundles",
                                    timeout=5) as r:
            assert json.loads(r.read())["bundles"] == [bid]
        with urllib.request.urlopen(f"{obs.url}/debug/bundle/{bid}",
                                    timeout=5) as r:
            assert json.loads(r.read())["reason"] == "degrade"
        url = f"{obs.url}/profile?seconds=0.05&interval=0.01"
        with urllib.request.urlopen(url, timeout=15) as r:
            assert r.status == 200  # body may be empty on an idle process


# ---------------------------------------------------------------------- #
# CLI: trace --index bounds, bundle + profile subcommands
# ---------------------------------------------------------------------- #
def test_trace_cli_index_out_of_range(tmp_path):
    from repro.__main__ import main

    with pytest.raises(SystemExit, match="out of range"):
        main(["trace", "--smoke", "--index", "99",
              "-o", str(tmp_path / "t.json")])


def test_bundle_cli_writes_bundle(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "bundle.json"
    assert main(["bundle", "--smoke", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reason"] == "manual"
    assert doc["ring"] and doc["metrics"]


def test_profile_cli_writes_collapsed_stacks(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "prof.txt"
    assert main(["profile", "--smoke", "--spans", "all",
                 "-o", str(out)]) == 0
    text = out.read_text()
    assert text.strip(), "whole-process profile captured no stacks"
    for line in text.splitlines():
        stack, count = line.rsplit(" ", 1)
        assert int(count) > 0


def test_serve_cli_rejects_bad_slo_spec():
    from repro.__main__ import main

    with pytest.raises(SystemExit, match="bad --slo spec"):
        main(["serve", "--smoke", "--slo", "p99=nonsense"])
