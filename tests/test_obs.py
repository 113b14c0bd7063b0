"""Tests for the observability layer (repro.obs): metrics registry +
Prometheus exposition, span tracer + Chrome export, the HTTP sidecar, and
the wiring through engine, server, and caches."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from conftest import make_triple
from repro.obs import (
    CHUNK_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    ObsHTTPServer,
    Tracer,
    capture,
    current_record,
    parse_exposition,
    span,
)
from repro.obs.trace import TraceRecord
from repro.parallel import SerialExecutor
from repro.service import Engine, Request
from repro.sparse import csr_random


# ---------------------------------------------------------------------- #
# metrics: counters / gauges / histograms
# ---------------------------------------------------------------------- #
def test_counter_labels_and_totals():
    reg = MetricsRegistry()
    c = reg.counter("repro_widgets_total", "widgets", labels=("kind",))
    c.inc(kind="a")
    c.inc(2, kind="b")
    assert c.value(kind="a") == 1.0
    assert c.value(kind="b") == 2.0
    assert c.value(kind="absent") == 0.0
    assert c.total() == 3.0
    with pytest.raises(ValueError):
        c.inc(-1, kind="a")  # counters only go up


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("repro_depth", "queue depth")
    g.set(7)
    g.dec(2)
    assert g.value() == 5.0
    assert "repro_depth 5" in reg.render()


def test_histogram_bucket_math():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", "latency",
                      buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):  # one per bucket + one above the top
        h.observe(v)
    text = reg.render()
    families = parse_exposition(text)
    buckets = families["repro_lat_seconds_bucket"]
    # cumulative counts: ≤0.01 → 1, ≤0.1 → 2, ≤1.0 → 3, +Inf → 4
    assert buckets[(("le", "0.01"),)] == 1.0
    assert buckets[(("le", "0.1"),)] == 2.0
    assert buckets[(("le", "1"),)] == 3.0
    assert buckets[(("le", "+Inf"),)] == 4.0
    assert families["repro_lat_seconds_count"][()] == 4.0
    assert families["repro_lat_seconds_sum"][()] == pytest.approx(5.555)


def test_registry_get_or_make_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", "x")
    assert reg.counter("repro_x_total", "x") is a
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total", "x")  # same name, different kind
    with pytest.raises(ValueError):
        reg.counter("repro_x_total", "x", labels=("other",))


def test_exposition_round_trip_and_strictness():
    reg = MetricsRegistry()
    reg.counter("repro_a_total", "a", labels=("k",)).inc(k='sp"icy\\')
    reg.histogram("repro_h_seconds", "h", buckets=LATENCY_BUCKETS).observe(1.0)
    families = parse_exposition(reg.render())
    assert families["repro_a_total"][(("k", 'sp\\"icy\\\\'),)] == 1.0
    with pytest.raises(ValueError):
        parse_exposition("repro_untyped_total 3\n")  # sample without TYPE
    with pytest.raises(ValueError):
        parse_exposition("# TYPE x counter\nx not-a-number\n")
    with pytest.raises(ValueError):  # decreasing cumulative buckets
        parse_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n")


def test_histogram_buckets_are_sorted_constants():
    for seq in (LATENCY_BUCKETS, CHUNK_BUCKETS):
        assert list(seq) == sorted(seq) and len(seq) == len(set(seq))


def test_counter_thread_safety():
    reg = MetricsRegistry()
    c = reg.counter("repro_race_total", "contended counter")

    def work():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.total() == 4000.0


# ---------------------------------------------------------------------- #
# trace: spans, nesting, ring retention
# ---------------------------------------------------------------------- #
def test_span_nesting_parent_ids():
    with capture("t") as rec:
        with span("outer") as outer:
            with span("inner", depth=2) as inner:
                pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.attrs["depth"] == 2
    assert rec.find("inner")[0].t1 >= rec.find("inner")[0].t0


def test_span_is_noop_outside_trace():
    assert current_record() is None
    with span("orphan") as s:
        assert s is None  # no active trace: nothing recorded, nothing raised


def test_span_exception_safety():
    with capture("t") as rec:
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        with span("after"):  # context restored: next span is a root again
            pass
    boom = rec.find("boom")[0]
    assert boom.attrs["error"] == "RuntimeError"
    assert boom.t1 >= boom.t0
    assert rec.find("after")[0].parent_id is None


def test_trace_record_max_spans_bound():
    rec = TraceRecord("t", max_spans=4)
    for i in range(10):
        rec.add_span(f"s{i}", 0.0, 1.0)
    assert len(rec.spans) == 4
    assert rec.dropped == 6


def test_tracer_ring_eviction():
    tracer = Tracer(capacity=2)
    for i in range(4):
        with tracer.trace(f"r{i}"):
            with span("body"):
                pass
    assert len(tracer) == 2
    assert tracer.ids() == ["r2", "r3"]
    assert tracer.get("r0") is None and tracer.export("r0") is None


def test_tracer_disabled_is_inert():
    tracer = Tracer(enabled=False)
    with tracer.trace("r1") as rec:
        assert rec is None
        with span("body"):
            assert current_record() is None
    assert len(tracer) == 0


def test_chrome_export_shape():
    with capture("req") as rec:
        with span("outer"):
            with span("inner"):
                pass
    doc = rec.chrome()
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in xs} == {"outer", "inner"}
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
    assert any(m["name"] == "thread_name" for m in metas)
    json.dumps(doc)  # must be JSON-serializable as-is


# ---------------------------------------------------------------------- #
# HTTP sidecar
# ---------------------------------------------------------------------- #
def test_http_server_routes():
    reg = MetricsRegistry()
    reg.counter("repro_hits_total", "hits").inc(3)
    tracer = Tracer()
    with tracer.trace("r9"):
        with span("numeric"):
            pass
    with ObsHTTPServer(reg, tracer) as obs:
        with urllib.request.urlopen(f"{obs.url}/metrics", timeout=5) as r:
            assert "version=0.0.4" in r.headers["Content-Type"]
            families = parse_exposition(r.read().decode())
        assert families["repro_hits_total"][()] == 3.0
        with urllib.request.urlopen(f"{obs.url}/traces", timeout=5) as r:
            entries = json.loads(r.read())["traces"]
        # scannable summaries, not bare ids: duration + start offset + size
        assert [e["id"] for e in entries] == ["r9"]
        assert entries[0]["spans"] == 1
        assert entries[0]["seconds"] >= 0
        assert entries[0]["start_offset"] == 0.0
        with urllib.request.urlopen(f"{obs.url}/trace/r9.json", timeout=5) as r:
            doc = json.loads(r.read())
        assert any(e["name"] == "numeric" for e in doc["traceEvents"])
        for bad in ("/trace/nope.json", "/bogus"):
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(f"{obs.url}{bad}", timeout=5)
            assert ei.value.code == 404


# ---------------------------------------------------------------------- #
# engine + cache wiring
# ---------------------------------------------------------------------- #
def _engine_with_triple(rng, **kw):
    eng = Engine(**kw)
    A, B, M = make_triple(rng)
    eng.register("A", A)
    eng.register("B", B)
    eng.register("M", M)
    return eng


def test_engine_trace_taxonomy_and_ids(rng):
    eng = _engine_with_triple(rng, result_cache_bytes=1 << 20)
    r1 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
    r2 = eng.submit(Request(a="A", b="B", mask="M", phases=2))
    assert r1.stats.trace_id and r2.stats.trace_id
    assert r1.stats.trace_id != r2.stats.trace_id
    cold = eng.tracer.get(r1.stats.trace_id)
    names = {s.name for s in cold.spans}
    assert {"numeric", "cache.lookup", "cache.writeback"} <= names
    assert not any(n.startswith("symbolic") for n in names)  # one-phase
    numeric = cold.find("numeric")[0]
    assert numeric.attrs["kernel"] == r1.stats.algorithm
    assert cold.attrs["tier"] == "computed"
    # repeated request: result hit → no numeric, no writeback
    warm = eng.tracer.get(r2.stats.trace_id)
    warm_names = {s.name for s in warm.spans}
    assert warm_names == {"cache.lookup"}
    assert warm.attrs["tier"] == "result"


def test_engine_tracing_off_leaves_no_ids(rng):
    eng = _engine_with_triple(rng, tracing=False)
    resp = eng.submit(Request(a="A", b="B", mask="M", phases=2))
    assert resp.stats.trace_id == ""
    assert len(eng.tracer) == 0


def test_engine_chunk_histogram_from_spans(rng):
    """Chunks exist on the row-parallel runner, which an engine executor
    routes every numeric pass through."""
    eng = _engine_with_triple(rng, executor=SerialExecutor())
    eng.submit(Request(a="A", b="B", mask="M", phases=2))
    families = parse_exposition(eng.metrics.render())
    counts = families["repro_chunk_seconds_count"]
    assert sum(counts.values()) >= 1.0


def test_engine_stats_derived_from_registry(rng):
    eng = _engine_with_triple(rng, result_cache_bytes=1 << 20)
    for _ in range(3):
        eng.submit(Request(a="A", b="B", mask="M", phases=2))
    assert eng.stats.requests == 3
    assert eng.stats.computed == 1
    assert eng.stats.result_hits == 2
    req = eng.metrics.get("repro_engine_requests_total")
    assert req.value(tier="computed") == 1.0
    assert req.value(tier="result") == 2.0
    assert req.total() == 3.0  # no other tier label
    phase = eng.metrics.get("repro_phase_seconds")
    assert phase.count(phase="numeric") == 1
    assert phase.count(phase="plan") == 0


def test_cache_counters_on_registry(rng):
    eng = _engine_with_triple(rng, result_cache_bytes=1 << 20)
    for _ in range(2):
        eng.submit(Request(a="A", b="B", mask="M", phases=2))
    c = eng.metrics.get("repro_cache_requests_total")
    assert c.value(cache="plan", outcome="miss") == 0.0
    assert c.value(cache="result", outcome="miss") == 1.0
    assert c.value(cache="result", outcome="hit") == 1.0
    # legacy attribute views stay coherent with the registry
    assert eng.results.misses == 1 and eng.results.hits == 1


def test_cache_bind_metrics_carries_counts_forward(rng):
    from repro.service import ResultCache

    cache = ResultCache(1 << 20)
    cache.get(("nope",))  # one miss on the private registry
    assert cache.misses == 1
    reg = MetricsRegistry()
    cache.bind_metrics(reg)
    assert cache.misses == 1  # carried onto the new registry
    assert reg.get("repro_cache_requests_total").value(
        cache="result", outcome="miss") == 1.0


def test_serve_smoke_metrics_leg_runs():
    """CLI smoke with --metrics-port 0 must pass its /metrics gate."""
    from repro.__main__ import main

    assert main(["serve", "--smoke", "--metrics-port", "0"]) == 0


def test_trace_cli_writes_chrome_json(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    assert main(["trace", "--smoke", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"queue", "numeric"} <= names


# ---------------------------------------------------------------------- #
# auto_select loop tier (satellite: ktruss-support regime)
# ---------------------------------------------------------------------- #
def test_auto_select_routes_ktruss_regime_to_loop(rng):
    from repro.core.registry import auto_select, available_algorithms, get_spec
    from repro.mask import Mask

    from repro.native import native_available

    from repro.core.expand import total_flops
    from repro.core.registry import LOOP_ROW_FLOPS

    n = 512
    E = csr_random(n, n, density=32 / n, rng=rng)  # ~1024 flops per row
    assert total_flops(E, E) >= LOOP_ROW_FLOPS * n
    mask = Mask.from_matrix(E)
    # the compiled msa subsumes the loop tier's dispatch-overhead win, so a
    # passing native probe routes this regime to msa-native instead
    expected = "msa-native" if native_available() else "msa-loop"
    assert auto_select(E, E, mask) == expected
    # the routing tier resolves but stays out of the public listing
    assert get_spec("msa-loop").numeric.__name__ == "numeric_rows_loop"
    assert "msa-loop" not in available_algorithms()


def test_msa_loop_tier_matches_fused(rng):
    from repro.mask import Mask
    from repro import masked_spgemm
    from repro.semiring import PLUS_PAIR

    n = 256
    E = csr_random(n, n, density=24 / n, rng=rng)
    mask = Mask.from_matrix(E)
    got = masked_spgemm(E, E, mask, algorithm="msa-loop", semiring=PLUS_PAIR)
    want = masked_spgemm(E, E, mask, algorithm="msa", semiring=PLUS_PAIR)
    assert got.same_pattern(want) and np.array_equal(got.data, want.data)
