#!/usr/bin/env python
"""Observability endpoint checker: /metrics must parse, traces must export.

Spins up a real :class:`repro.obs.ObsHTTPServer` next to a small engine,
serves a handful of requests, then validates over actual HTTP that

* ``GET /metrics`` returns strict Prometheus text exposition
  (:func:`repro.obs.parse_exposition` — HELP/TYPE lines, escaped labels,
  monotone cumulative histogram buckets) carrying non-zero engine request
  counters under exactly the ``computed``/``result`` serving tiers, the
  expected metric families (``repro_slo_*`` included), and well-formed
  OpenMetrics exemplars on the latency histograms whose trace ids resolve;
* ``GET /slo`` reports burn rates for the configured objective;
* ``GET /traces`` lists every retained request with duration/tier/outcome;
* ``GET /trace/<id>.json`` returns Chrome-trace JSON whose complete events
  cover the serving span taxonomy (cache.lookup → numeric →
  cache.writeback on the computed request), loadable by Perfetto /
  chrome://tracing as-is;
* unknown routes 404.

Run from anywhere: ``PYTHONPATH=src python tools/check_metrics.py``. Exits
nonzero and prints one line per violated invariant. Wired into CI next to
``repro serve --smoke`` (which additionally asserts the same endpoints
in-process via ``--metrics-port 0``).
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: metric families the engine must expose after serving traffic
REQUIRED_FAMILIES = (
    "repro_engine_requests_total",
    "repro_cache_requests_total",
    "repro_phase_seconds",
    "repro_request_seconds",
    "repro_chunk_seconds",
    # native tier (PR 9): the compile gauge renders from engine init (0.0
    # when the tier is unavailable); the per-tier kernel counter populates
    # on the first executed numeric pass either way
    "repro_native_compile_seconds",
    "repro_kernel_requests_total",
    # resilience: the labeled degrade/deadline counters only appear after
    # their first increment, so the chaos smoke gate asserts those instead
    # SLO layer (PR 10): all five families render from evaluator init
    "repro_slo_target",
    "repro_slo_burn_rate",
    "repro_slo_error_budget_remaining",
    "repro_slo_alerting",
    "repro_slo_alerts_total",
)

#: spans the first (computed) request must record: it misses the result
#: cache, runs the numeric pass one-phase, and writes its result back
REQUIRED_SPANS = {"cache.lookup", "numeric", "cache.writeback"}

#: serving tiers of the three submitted requests: the first computes, the
#: two repeats are result-cache hits
EXPECTED_TIERS = {"computed": 1.0, "result": 2.0}


def _fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read()


def check() -> list[str]:
    import numpy as np

    from repro.obs import ObsHTTPServer, parse_exposition, parse_slo
    from repro.parallel import SerialExecutor
    from repro.service import Engine, Request
    from repro.sparse import csr_random

    problems: list[str] = []
    rng = np.random.default_rng(7)
    # the executor routes the numeric pass through the row-parallel runner,
    # whose chunks are what repro_chunk_seconds times
    engine = Engine(result_cache_bytes=1 << 20, executor=SerialExecutor(),
                    slos=[parse_slo("p99=50ms:0.99")])
    engine.register("A", csr_random(200, 200, density=0.05, rng=rng))
    engine.register("M", csr_random(200, 200, density=0.05, rng=rng))
    responses = [engine.submit(Request(a="A", b="A", mask="M", phases=2))
                 for _ in range(3)]

    with ObsHTTPServer(engine.metrics, engine.tracer, slo=engine.slo,
                       flight=engine.flight) as obs:
        # -- /metrics: strict exposition + expected families ------------- #
        body = _fetch(f"{obs.url}/metrics").decode()
        try:
            families = parse_exposition(body)
        except ValueError as e:
            return [f"/metrics does not parse: {e}"]
        for name in REQUIRED_FAMILIES:
            if not any(k == name or k.startswith(name + "_")
                       for k in families):
                problems.append(f"/metrics missing family {name}")
        served = sum(families.get("repro_engine_requests_total",
                                  {}).values())
        if served < len(responses):
            problems.append(
                f"repro_engine_requests_total {served:.0f} < "
                f"{len(responses)} submitted requests")
        tiers = {dict(k).get("tier"): v for k, v in
                 families.get("repro_engine_requests_total", {}).items()}
        if tiers != EXPECTED_TIERS:
            problems.append(f"repro_engine_requests_total tiers {tiers} != "
                            f"{EXPECTED_TIERS}")
        phases = {dict(k).get("phase") for k in
                  families.get("repro_phase_seconds_count", {})}
        if phases != {"numeric"}:
            problems.append(f"repro_phase_seconds phases {sorted(phases)} "
                            f"!= ['numeric']")

        # -- exemplars: well-formed OpenMetrics syntax, resolvable ids --- #
        try:
            _, exemplars = parse_exposition(body, return_exemplars=True)
        except ValueError as e:
            problems.append(f"exemplar syntax does not parse: {e}")
            exemplars = {}
        req_ex = exemplars.get("repro_request_seconds_bucket", {})
        if not req_ex:
            problems.append(
                "repro_request_seconds buckets carry no exemplars despite "
                "tracing being on")
        for expairs, exvalue, _exts in req_ex.values():
            trace_id = dict(expairs).get("trace_id", "")
            if engine.tracer.get(trace_id) is None:
                problems.append(f"exemplar trace {trace_id!r} not retained")
            if not exvalue > 0:
                problems.append(
                    f"exemplar on {trace_id!r} has value {exvalue}")

        # -- /slo reports burn rates for the configured objective -------- #
        slos = json.loads(_fetch(f"{obs.url}/slo"))["slos"]
        if [s["slo"] for s in slos] != ["p99"]:
            problems.append(f"/slo objectives {[s['slo'] for s in slos]} "
                            f"!= ['p99']")
        for s in slos:
            for window in ("fast", "slow"):
                if window not in s["windows"]:
                    problems.append(f"/slo {s['slo']} lacks {window} window")

        # -- /traces lists every retained request with its summary ------- #
        entries = json.loads(_fetch(f"{obs.url}/traces"))["traces"]
        ids = [e.get("id") for e in entries]
        want_ids = [r.stats.trace_id for r in responses]
        missing = [i for i in want_ids if i not in ids]
        if missing:
            problems.append(f"/traces missing ids {missing}")
        for e in entries:
            lacking = {"id", "seconds", "start_offset", "spans",
                       "tier", "outcome"} - set(e)
            if lacking:
                problems.append(
                    f"/traces entry {e.get('id')} lacks {sorted(lacking)}")
            elif e["tier"] not in EXPECTED_TIERS:
                problems.append(f"/traces entry {e.get('id')} has tier "
                                f"{e['tier']!r}")

        # -- /trace/<id>.json: Chrome JSON with the span taxonomy -------- #
        doc = json.loads(_fetch(f"{obs.url}/trace/{want_ids[0]}.json"))
        events = doc.get("traceEvents", [])
        names = {e.get("name") for e in events if e.get("ph") == "X"}
        if not REQUIRED_SPANS <= names:
            problems.append(
                f"computed trace spans {sorted(names)} lack "
                f"{sorted(REQUIRED_SPANS - names)}")
        bad = [e for e in events if e.get("ph") == "X"
               and (e.get("ts", -1) < 0 or e.get("dur", -1) < 0)]
        if bad:
            problems.append(f"{len(bad)} trace events with negative ts/dur")

        # -- unknown routes 404 ------------------------------------------ #
        try:
            _fetch(f"{obs.url}/trace/absent.json")
            problems.append("/trace/absent.json did not 404")
        except urllib.error.HTTPError as e:
            if e.code != 404:
                problems.append(f"/trace/absent.json returned {e.code}")
    engine.close()
    return problems


def main() -> int:
    problems = check()
    for p in problems:
        print(p)
    print("checked /metrics + /traces + /trace/<id>.json: "
          + ("OK" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
