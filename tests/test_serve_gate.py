"""The serving gate: the built-in smoke workload, served through the async
front end with a live observability sidecar and checked over real HTTP.

Both legs serve :data:`repro.service.SMOKE_WORKLOAD` through
:func:`repro.service.serve_workload`, the path ``repro serve --smoke``
takes, with an :class:`~repro.obs.ObsHTTPServer` beside the engine:

* **plain** (result cache on): the stream computes once and answers its
  repeats from the cache, and ``/metrics``, ``/slo``, ``/traces`` and
  ``/trace/<id>.json`` describe exactly that;
* **chaos**: ``engine.kernel:error:2`` fails a kernel call and its first
  fallback, and ``p99=100us:0.99`` is breached on purpose. Every request
  still completes with the fault-free bits, the degrade is counted and
  bundled, and the alert points at a retained trace.

Each check appears once. Tier-1 runs this file with the compiled tier on
and with ``REPRO_NATIVE=off``.
"""

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import ObsHTTPServer, parse_exposition, parse_slo
from repro.parallel import SerialExecutor
from repro.resilience import FaultPlan
from repro.service import (
    SMOKE_WORKLOAD,
    Engine,
    expand_requests,
    register_matrices,
    serve_workload,
)

#: metric families the engine exposes after serving the stream
REQUIRED_FAMILIES = (
    "repro_engine_requests_total",
    "repro_cache_requests_total",
    "repro_phase_seconds",
    "repro_request_seconds",
    "repro_chunk_seconds",
    # renders from engine init (0.0 when the compiled tier is unavailable)
    "repro_native_compile_seconds",
    "repro_kernel_requests_total",
    # the SLO evaluator renders all five from init
    "repro_slo_target",
    "repro_slo_burn_rate",
    "repro_slo_error_budget_remaining",
    "repro_slo_alerting",
    "repro_slo_alerts_total",
)

#: spans of the computed request: admission queue, result-cache miss, the
#: numeric pass, and the writeback of its result
REQUIRED_SPANS = {"queue", "cache.lookup", "numeric", "cache.writeback"}


def tier_counts(responses) -> dict:
    """How a served stream was answered. A coalesced response is a copy of
    an in-flight twin's and ran nothing; a result hit ran no kernel."""
    coalesced = sum(1 for r in responses if r.stats.coalesced)
    hits = sum(1 for r in responses
               if r.stats.result_cache_hit and not r.stats.coalesced)
    return {"computed": len(responses) - coalesced - hits, "result": hits,
            "coalesced": coalesced}


def check_computes_once(responses) -> None:
    """At most one request computed, and at least one was a genuine result
    hit: coalescing onto an in-flight twin alone does not pass."""
    counts = tier_counts(responses)
    assert counts["computed"] <= 1 and counts["result"] >= 1, counts


def _leg(**engine_kw):
    # the executor routes the numeric pass through the row-parallel runner,
    # whose chunks are what repro_chunk_seconds times
    engine = Engine(result_cache_bytes=64 << 20, executor=SerialExecutor(),
                    **engine_kw)
    try:
        with ObsHTTPServer(engine.metrics, engine.tracer, slo=engine.slo,
                           flight=engine.flight) as obs:
            responses, failures, server, _ = serve_workload(engine,
                                                            SMOKE_WORKLOAD)
            yield SimpleNamespace(engine=engine, obs=obs, server=server,
                                  responses=responses, failures=failures)
    finally:
        engine.close()


@pytest.fixture(scope="module")
def plain():
    yield from _leg(faults=FaultPlan(), slos=[parse_slo("p99=50ms:0.99")])


@pytest.fixture(scope="module")
def chaos():
    yield from _leg(faults=FaultPlan.parse("engine.kernel:error:2"),
                    slos=[parse_slo("p99=100us:0.99")])


def _get(leg, path: str) -> bytes:
    with urllib.request.urlopen(f"{leg.obs.url}{path}", timeout=10) as resp:
        return resp.read()


def _json(leg, path: str):
    return json.loads(_get(leg, path))


def _resolves(leg, trace_id: str) -> bool:
    try:
        return bool(_json(leg, f"/trace/{trace_id}.json")["traceEvents"])
    except urllib.error.HTTPError:
        return False


def _metrics(leg, *, exemplars: bool = False):
    return parse_exposition(_get(leg, "/metrics").decode(),
                            return_exemplars=exemplars)


# ---------------------------------------------------------------------- #
# plain leg: one computed request, repeats from the result cache
# ---------------------------------------------------------------------- #
def test_smoke_stream_computes_once(plain):
    check_computes_once(plain.responses)


def test_computes_once_fails_without_the_result_cache():
    engine = Engine(faults=FaultPlan())
    try:
        responses, _, _, _ = serve_workload(engine, SMOKE_WORKLOAD)
    finally:
        engine.close()
    with pytest.raises(AssertionError):
        check_computes_once(responses)


def test_server_completed_counts_executed_requests(plain):
    counts = tier_counts(plain.responses)
    assert plain.server.stats.completed == (counts["computed"]
                                            + counts["result"])


def test_metrics_parse_strictly(plain):
    assert _metrics(plain)


def test_metrics_required_families(plain):
    families = _metrics(plain)
    missing = [name for name in REQUIRED_FAMILIES
               if not any(k == name or k.startswith(name + "_")
                          for k in families)]
    assert not missing


def test_metrics_tier_and_phase_labels(plain):
    families = _metrics(plain)
    counts = tier_counts(plain.responses)
    tiers = {dict(k)["tier"]: v for k, v in
             families["repro_engine_requests_total"].items()}
    assert tiers == {"computed": counts["computed"],
                     "result": counts["result"]}
    phases = {dict(k)["phase"]
              for k in families["repro_phase_seconds_count"]}
    assert phases == {"numeric"}


def test_metrics_exemplars_resolve_to_retained_traces(plain):
    _, exemplars = _metrics(plain, exemplars=True)
    found = exemplars.get("repro_request_seconds_bucket", {})
    assert found, "latency buckets carry no exemplars with tracing on"
    for pairs, value, _ts in found.values():
        assert plain.engine.tracer.get(dict(pairs)["trace_id"]) is not None
        assert value > 0


def test_slo_reports_fast_and_slow_windows(plain):
    (slo,) = _json(plain, "/slo")["slos"]
    assert slo["slo"] == "p99"
    assert {"fast", "slow"} <= set(slo["windows"])


def test_traces_list_the_executed_requests(plain):
    entries = _json(plain, "/traces")["traces"]
    executed = {r.stats.trace_id for r in plain.responses
                if not r.stats.coalesced}
    assert executed <= {e["id"] for e in entries}
    for e in entries:
        assert {"id", "seconds", "start_offset", "spans", "tier",
                "outcome"} <= set(e)


def test_computed_trace_has_the_serving_spans(plain):
    (computed,) = [r for r in plain.responses
                   if not r.stats.result_cache_hit and not r.stats.coalesced]
    doc = _json(plain, f"/trace/{computed.stats.trace_id}.json")
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert REQUIRED_SPANS <= {e["name"] for e in events}
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)


def test_unknown_trace_is_404(plain):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(plain, "/trace/absent.json")
    assert err.value.code == 404


# ---------------------------------------------------------------------- #
# chaos leg: kernel faults and a breached objective
# ---------------------------------------------------------------------- #
def test_chaos_every_request_completes(chaos):
    assert not chaos.failures
    assert len(chaos.responses) == len(expand_requests(SMOKE_WORKLOAD))


def test_chaos_faults_fire_and_degrade(chaos):
    assert chaos.engine.faults.fired_total() > 0
    assert sum(_metrics(chaos)["repro_degraded_total"].values()) > 0


def test_chaos_responses_match_a_fault_free_engine(chaos):
    ref_engine = Engine(faults=FaultPlan())
    try:
        register_matrices(ref_engine, SMOKE_WORKLOAD)
        want = ref_engine.submit(expand_requests(SMOKE_WORKLOAD)[0]).result
    finally:
        ref_engine.close()
    for r in chaos.responses:
        assert np.array_equal(r.result.indptr, want.indptr)
        assert np.array_equal(r.result.indices, want.indices)
        assert np.array_equal(r.result.data, want.data)


def test_chaos_alert_has_a_resolvable_exemplar(chaos):
    alerting = [o for o in _json(chaos, "/slo")["slos"]
                if o["alerting"] and o["kind"] == "latency"]
    assert alerting
    for o in alerting:
        assert any(_resolves(chaos, ex["trace_id"])
                   for ex in o["exemplars"]), o["exemplars"]


def test_chaos_degrade_bundle_downloads(chaos):
    ids = _json(chaos, "/debug/bundles")["bundles"]
    degrade = [i for i in ids if i.endswith("-degrade")]
    assert degrade, ids
    doc = _json(chaos, f"/debug/bundle/{degrade[-1]}")
    assert doc["reason"] == "degrade"
    assert doc["metrics"] and "context" in doc
