"""Command-line interface: run the paper's applications on Matrix Market
files or generated graphs.

Examples
--------
::

    python -m repro tc graph.mtx --algorithm msa
    python -m repro ktruss --rmat 10 --k 5 --algorithm inner
    python -m repro bc graph.mtx --batch 64
    python -m repro spgemm A.mtx B.mtx --mask M.mtx --algorithm auto -o C.mtx
    python -m repro serve workload.json --workers 2  # replay a workload spec
    python -m repro serve workload.json --plans plans.npz  # warm restarts
    python -m repro serve --smoke        # CI smoke: warm serving + restart
    python -m repro serve workload.json --metrics-port 9100  # live /metrics
    python -m repro serve --smoke --chaos  # CI chaos: inject kernel faults
    python -m repro serve --smoke --slo p99=50ms:0.99  # burn-rate SLO gate
    python -m repro trace workload.json -o trace.json  # offline flame trace
    python -m repro bundle --smoke --chaos -o bundle.json  # debug bundle
    python -m repro profile workload.json -o prof.txt  # collapsed stacks
    python -m repro suite                # list the built-in input suite
    python -m repro info                 # algorithms and semirings

The CLI exists so a downstream user with real SuiteSparse ``.mtx`` files can
reproduce the paper's workloads without writing Python.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _load_graph_arg(args) -> "object":
    from .graphs import rmat, erdos_renyi
    from .sparse import read_matrix_market

    if getattr(args, "rmat", None) is not None:
        return rmat(args.rmat, args.edge_factor, rng=args.seed)
    if getattr(args, "er", None) is not None:
        return erdos_renyi(args.er, args.degree, rng=args.seed,
                           symmetrize=True)
    if getattr(args, "path", None):
        return read_matrix_market(args.path)
    raise SystemExit("provide a .mtx path or --rmat/--er")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", help="MatrixMarket (.mtx) file")
    p.add_argument("--rmat", type=int, metavar="SCALE",
                   help="generate an R-MAT graph of 2^SCALE vertices instead")
    p.add_argument("--er", type=int, metavar="N",
                   help="generate an Erdős-Rényi graph with N vertices")
    p.add_argument("--edge-factor", type=int, default=8)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", "-a", default="auto",
                   help="masked kernel (msa/hash/mca/heap/heapdot/inner/"
                        "hybrid/auto or a baseline)")
    p.add_argument("--phases", type=int, choices=(1, 2), default=1)


def cmd_tc(args) -> int:
    from .algorithms import triangle_count

    g = _load_graph_arg(args)
    t0 = time.perf_counter()
    n = triangle_count(g, algorithm=args.algorithm, phases=args.phases)
    dt = time.perf_counter() - t0
    print(f"triangles: {n}   ({dt * 1e3:.1f} ms, algorithm={args.algorithm})")
    return 0


def cmd_ktruss(args) -> int:
    from .algorithms import ktruss

    g = _load_graph_arg(args)
    t0 = time.perf_counter()
    res = ktruss(g, args.k, algorithm=args.algorithm, phases=args.phases)
    dt = time.perf_counter() - t0
    print(f"{args.k}-truss: {res.subgraph.nnz // 2} edges survive "
          f"({res.iterations} iterations, {dt * 1e3:.1f} ms)")
    if args.output:
        from .sparse import write_matrix_market

        write_matrix_market(res.subgraph, args.output, field="pattern")
        print(f"wrote {args.output}")
    return 0


def cmd_delta(args) -> int:
    """Streaming-graph demo: k-truss iterated via edge deltas against the
    same decomposition re-planned from scratch every iteration. The delta
    path registers the support matrix once, applies each iteration's pruned
    edges as a delete batch, and serves the next product from spliced plans
    and dirty-row-patched results — bit-identical output, warm-path
    economics."""
    from .algorithms import ktruss, ktruss_delta
    from .service import Engine

    g = _load_graph_arg(args)
    engine = Engine(result_cache_bytes=512 << 20)
    t0 = time.perf_counter()
    inc = ktruss_delta(g, args.k, algorithm=args.algorithm, engine=engine)
    t_delta = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = ktruss(g, args.k, algorithm=args.algorithm, phases=2)
    t_full = time.perf_counter() - t0

    identical = (np.array_equal(inc.subgraph.indptr, full.subgraph.indptr)
                 and np.array_equal(inc.subgraph.indices,
                                    full.subgraph.indices)
                 and np.array_equal(inc.subgraph.data, full.subgraph.data))
    from .obs import parse_exposition

    families = parse_exposition(engine.metrics.render())
    patched = sum(families.get("repro_delta_results_patched_total",
                               {}).values())
    spliced = families.get("repro_delta_plans_total", {}).get(
        (("outcome", "spliced"),), 0.0)
    print(f"{args.k}-truss, {inc.subgraph.nnz // 2} edges survive "
          f"({inc.iterations} iterations)")
    print(f"  delta serving : {t_delta * 1e3:8.1f} ms  "
          f"(plan hits {inc.plan_hits}/{inc.iterations}, "
          f"{spliced:.0f} plans spliced, {patched:.0f} results patched)")
    print(f"  full re-plan  : {t_full * 1e3:8.1f} ms  "
          f"(every iteration pays selection + symbolic + numeric)")
    print(f"  speedup       : {t_full / max(t_delta, 1e-9):8.2f}x   "
          f"bit-identical: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def cmd_bc(args) -> int:
    from .algorithms import betweenness_centrality

    g = _load_graph_arg(args)
    rng = np.random.default_rng(args.seed)
    batch = min(args.batch, g.nrows)
    sources = rng.choice(g.nrows, size=batch, replace=False)
    t0 = time.perf_counter()
    res = betweenness_centrality(g, sources, algorithm=args.algorithm,
                                 phases=args.phases)
    dt = time.perf_counter() - t0
    top = np.argsort(res.centrality)[::-1][: args.top]
    print(f"betweenness centrality from {batch} sources "
          f"(depth {res.depth}, {dt * 1e3:.1f} ms)")
    for v in top:
        print(f"  vertex {int(v):8d}  score {res.centrality[v]:.3f}")
    return 0


def cmd_spgemm(args) -> int:
    from .core import masked_spgemm
    from .mask import Mask
    from .sparse import read_matrix_market, write_matrix_market

    A = read_matrix_market(args.a)
    B = read_matrix_market(args.b)
    mask = None
    if args.mask:
        mask = Mask.from_matrix(read_matrix_market(args.mask),
                                complemented=args.complement)
    t0 = time.perf_counter()
    C = masked_spgemm(A, B, mask, algorithm=args.algorithm,
                      phases=args.phases)
    dt = time.perf_counter() - t0
    print(f"C: {C.nrows}x{C.ncols}, nnz={C.nnz}  ({dt * 1e3:.1f} ms, "
          f"algorithm={args.algorithm})")
    if args.output:
        write_matrix_market(C, args.output)
        print(f"wrote {args.output}")
    return 0


_SMOKE_SPEC = {
    # built-in repeated-mask TC workload for `serve --smoke` (CI-sized)
    "matrices": {
        "G": {"generator": "er", "n": 400, "degree": 8, "seed": 0,
              "prep": "triangle"},
    },
    "requests": [
        {"a": "G", "b": "G", "mask": "G", "algorithm": "auto",
         "semiring": "plus_pair", "phases": 2, "repeat": 12, "tag": "tc"},
    ],
}


def _serve_once(spec, args, *, engine):
    """Register matrices (if absent), run the request stream through an
    AsyncServer, and return (responses, failures, server, wall seconds).

    Failures are isolated per request (a bad request must not discard its
    stream-mates' responses, nor the warm plans the stream built)."""
    import asyncio

    from .service import AsyncServer, expand_requests, register_matrices

    try:
        if not len(engine.store):
            register_matrices(engine, spec)
        requests = expand_requests(spec)
    except ValueError as e:
        # malformed spec contents (unknown request/matrix field, bad prep)
        raise SystemExit(f"bad workload spec: {e}")
    max_queued_flops = (int(args.max_queued_mflops * 1e6)
                        if args.max_queued_mflops else None)

    async def run():
        t0 = time.perf_counter()
        async with AsyncServer(engine, workers=args.workers,
                               max_inflight=args.max_inflight,
                               max_queued_flops=max_queued_flops) as server:
            results = await asyncio.gather(
                *[server.submit(r) for r in requests],
                return_exceptions=True)
        return results, server, time.perf_counter() - t0

    results, server, seconds = asyncio.run(run())
    responses = [r for r in results if not isinstance(r, BaseException)]
    failures = [(req.tag, r) for req, r in zip(requests, results)
                if isinstance(r, BaseException)]
    return responses, failures, server, seconds


#: chaos default when ``--chaos`` is given but $REPRO_FAULTS is unset: fail
#: the first numeric kernel call AND its first fallback, so a native-routed
#: request walks the whole ladder (native → fused → loop) and the gate can
#: assert repro_degraded_total > 0.
_CHAOS_DEFAULT = "engine.kernel:error:2"


def cmd_serve(args) -> int:
    import json

    from .service import (Engine, PlanStoreError, load_workload,
                          render_serve_report)

    if args.smoke:
        spec = _SMOKE_SPEC
    elif args.workload:
        try:
            spec = load_workload(args.workload)
        except FileNotFoundError:
            raise SystemExit(f"workload file not found: {args.workload}")
        except (json.JSONDecodeError, ValueError) as e:
            raise SystemExit(f"bad workload spec {args.workload}: {e}")
    else:
        raise SystemExit("provide a workload.json or --smoke")

    faults = None
    if getattr(args, "chaos", False):
        from .resilience import FaultPlan

        faults = FaultPlan.from_env() or FaultPlan.parse(_CHAOS_DEFAULT)
        print(f"chaos: injecting {faults!r}")

    slos = None
    if getattr(args, "slo", None):
        from .obs import parse_slo

        try:
            slos = [parse_slo(s) for s in args.slo]
        except ValueError as e:
            raise SystemExit(f"bad --slo spec: {e}")
        print("slo: " + ", ".join(
            f"{o.name} ({o.kind}, target {o.target:g}"
            + (f", ≤ {o.threshold * 1e3:g} ms" if o.kind == "latency" else "")
            + ")" for o in slos))

    engine = Engine(result_cache_bytes=(int(args.result_cache_mb * 2**20)
                                        if args.result_cache_mb else None),
                    faults=faults, slos=slos)
    obs = None
    if args.metrics_port is not None:
        from .obs import ObsHTTPServer

        obs = ObsHTTPServer(engine.metrics, engine.tracer,
                            port=args.metrics_port,
                            ready=engine.ready, slo=engine.slo,
                            flight=engine.flight).start()
        print(f"observability: {obs.url}/metrics  {obs.url}/slo  "
              f"{obs.url}/trace/<request_id>.json  {obs.url}/debug/bundles")
    try:
        if args.plans:
            try:
                n = engine.load_plans(args.plans)
                print(f"warm start: restored {n} plans from {args.plans}")
            except PlanStoreError:
                print(f"cold start: no usable plan store at {args.plans} "
                      f"(will be written on shutdown)")

        responses, failures, server, seconds = _serve_once(spec, args,
                                                           engine=engine)
        print(render_serve_report(engine, server, responses, seconds))
        for tag, exc in failures[:5]:
            print(f"FAILED request {tag!r}: {type(exc).__name__}: {exc}")
        if len(failures) > 5:
            print(f"... and {len(failures) - 5} more failures")

        # persist even after partial failure: the successful requests' warm
        # plans are exactly what the next start should not have to rebuild
        if args.plans:
            n = engine.save_plans(args.plans)
            print(f"persisted {n} plans to {args.plans}")

        if args.smoke:
            return _check_smoke(engine, server, responses, args, obs=obs,
                                failures=failures)
        return 1 if failures else 0
    finally:
        if obs is not None:
            obs.close()
        engine.close()


def _check_smoke(engine, server, responses, args, obs=None,
                 failures=()) -> int:
    """CI gate: the repeated-mask smoke stream must serve warm — via a plan
    hit, a result hit, or by coalescing onto an identical in-flight request
    (strictly cheaper than warm: no execution at all) — and a restarted
    engine restored from the persisted plans must never miss. With
    ``--metrics-port`` the gate also requires a live, parseable ``/metrics``
    with non-zero request counters and a Chrome-trace export for a served
    request. With ``--chaos`` the gate additionally requires that the
    injected faults actually fired, every request still completed with the
    bit-identical fault-free answer, the degrade ladder was observed in
    ``repro_degraded_total``, and the degrade captured a flight bundle."""
    import tempfile
    from pathlib import Path

    from .service import Engine

    n = len(responses)
    warm = sum(1 for r in responses
               if r.stats.plan_cache_hit or r.stats.result_cache_hit
               or r.stats.coalesced)
    coalesced = sum(1 for r in responses if r.stats.coalesced)
    executed = n - coalesced
    ok = server.stats.completed == executed and warm >= n - 1
    print(f"\nsmoke: {warm}/{n} requests served warm "
          f"({coalesced} coalesced; need ≥ {n - 1}) → "
          f"{'PASS' if ok else 'FAIL'}")
    ok_obs = True
    if obs is not None:
        ok_obs = _check_metrics_smoke(obs, responses, executed)
    ok_slo = True
    if getattr(args, "slo", None):
        ok_slo = _check_slo_smoke(engine, obs)
    ok_bundle = True
    if getattr(args, "chaos", False):
        ok_bundle = _check_bundle_smoke(engine, obs)
    tiers = engine.stats.kernel_tiers
    if tiers:
        # which kernel tier actually served the numeric passes — a degraded
        # run shows fused/loop counts here even though plans named native
        print("smoke kernel tiers: "
              + ", ".join(f"{t}={c}" for t, c in tiers.items()))

    # restart leg: persist plans, restore into a fresh engine (result cache
    # off so every request exercises the plan path), expect zero misses
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = Path(tmp) / "plans.npz"
        saved = engine.save_plans(plan_path)
        # reuse the (spent) fault plan so a chaos run's restart leg does
        # not re-arm $REPRO_FAULTS via FaultPlan.from_env()
        restarted = Engine(faults=engine.faults)
        try:
            restored = restarted.load_plans(plan_path)
            responses2, _, _, _ = _serve_once(_SMOKE_SPEC, args,
                                              engine=restarted)
        finally:
            restarted.close()
    misses = restarted.stats.plan_misses
    executed2 = sum(1 for r in responses2 if not r.stats.coalesced)
    ok2 = (restored == saved and misses == 0
           and restarted.stats.plan_hits == executed2)
    print(f"smoke restart: {restored} plans restored, "
          f"{restarted.stats.plan_hits} hits / {misses} misses after warm "
          f"start → {'PASS' if ok2 else 'FAIL'}")
    ok_chaos = True
    if getattr(args, "chaos", False):
        ok_chaos = _check_chaos_smoke(engine, responses, failures)
    return (0 if ok and ok2 and ok_chaos and ok_obs and ok_slo and ok_bundle
            else 1)


def _check_chaos_smoke(engine, responses, failures) -> bool:
    """Chaos gate: with faults injected, every request must still complete,
    the degrade ladder must be visible in ``repro_degraded_total``, and
    every response must be bit-identical to the fault-free answer."""
    from .obs import parse_exposition
    from .resilience import FaultPlan
    from .service import Engine, expand_requests, register_matrices

    ok_complete = not failures and len(responses) > 0
    fired = engine.faults.fired_total() if engine.faults is not None else 0
    families = parse_exposition(engine.metrics.render())
    degraded = sum(families.get("repro_degraded_total", {}).values())
    ok_degraded = fired > 0 and degraded > 0

    # bit-identical: a fresh engine with an empty fault plan (not
    # $REPRO_FAULTS) is the oracle
    ref_engine = Engine(faults=FaultPlan())
    try:
        register_matrices(ref_engine, _SMOKE_SPEC)
        ref = ref_engine.submit(expand_requests(_SMOKE_SPEC)[0]).result
    finally:
        ref_engine.close()
    ok_identical = all(
        np.array_equal(r.result.indptr, ref.indptr)
        and np.array_equal(r.result.indices, ref.indices)
        and np.array_equal(r.result.data, ref.data)
        for r in responses)

    ok = ok_complete and ok_degraded and ok_identical
    print(f"smoke chaos: {len(responses)} responses / {len(failures)} "
          f"failures, {fired} faults fired, degraded={degraded:.0f}, "
          f"bit-identical={'yes' if ok_identical else 'NO'} → "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def _check_metrics_smoke(obs, responses, executed: int) -> bool:
    """Fetch ``/metrics`` and one ``/trace/<id>.json`` over real HTTP and
    check they describe the smoke stream: the engine-request counter must
    cover every executed request, and the trace must contain the serving
    span taxonomy (queue → numeric at minimum) as valid Chrome-trace JSON."""
    import json
    import urllib.request

    from .obs import parse_exposition

    with urllib.request.urlopen(f"{obs.url}/metrics", timeout=10) as resp:
        families = parse_exposition(resp.read().decode())
    served = sum(families.get("repro_engine_requests_total", {}).values())
    completed = families.get("repro_server_requests_total", {}).get(
        (("outcome", "completed"),), 0.0)
    ok_metrics = served >= executed > 0 and completed >= executed

    traced = [r for r in responses if r.stats.trace_id]
    ok_trace = False
    names: set = set()
    if traced:
        trace_id = traced[-1].stats.trace_id
        with urllib.request.urlopen(f"{obs.url}/trace/{trace_id}.json",
                                    timeout=10) as resp:
            doc = json.loads(resp.read().decode())
        names = {ev.get("name") for ev in doc.get("traceEvents", [])
                 if ev.get("ph") == "X"}
        ok_trace = {"queue", "numeric"} <= names
    ok_obs = ok_metrics and ok_trace
    print(f"smoke metrics: /metrics served {served:.0f} engine requests "
          f"(≥ {executed} executed), trace spans {sorted(names)} → "
          f"{'PASS' if ok_obs else 'FAIL'}")
    return ok_obs


def _check_slo_smoke(engine, obs) -> bool:
    """SLO gate (``--smoke --slo ...``): every configured objective must
    evaluate, at least one must be *alerting* on both burn-rate windows
    (pick a threshold the smoke stream breaches — the CI leg uses
    ``p99=100us:0.99``), and each alerting latency objective must surface
    ≥ 1 exemplar whose trace id resolves to a retained trace (over real
    HTTP when ``--metrics-port`` is live)."""
    import json
    import urllib.request

    if engine.slo is None:
        print("smoke slo: FAIL (no evaluator attached)")
        return False
    if obs is not None:
        with urllib.request.urlopen(f"{obs.url}/slo", timeout=10) as resp:
            payload = json.loads(resp.read().decode())["slos"]
    else:
        payload = engine.slo.evaluate(force=True)
    alerting = [o for o in payload if o["alerting"]]
    ok_alert = bool(alerting)
    need_exemplar = [o for o in alerting if o["kind"] == "latency"]
    resolved = 0
    for o in need_exemplar:
        for ex in o.get("exemplars", []):
            if obs is not None:
                try:
                    url = f"{obs.url}/trace/{ex['trace_id']}.json"
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        doc = json.loads(resp.read().decode())
                    hit = bool(doc.get("traceEvents"))
                except urllib.error.HTTPError:
                    hit = False
            else:
                hit = engine.tracer.get(ex["trace_id"]) is not None
            if hit:
                resolved += 1
                break
    ok_exemplar = resolved == len(need_exemplar)
    burns = ", ".join(
        f"{o['slo']}: fast={o['windows']['fast']['burn_rate']:.1f}x "
        f"slow={o['windows']['slow']['burn_rate']:.1f}x"
        f"{' ALERT' if o['alerting'] else ''}" for o in payload)
    ok_slo = ok_alert and ok_exemplar
    print(f"smoke slo: {burns}; {resolved}/{len(need_exemplar)} alerting "
          f"objectives with a resolvable exemplar trace → "
          f"{'PASS' if ok_slo else 'FAIL'}")
    return ok_slo


def _check_bundle_smoke(engine, obs) -> bool:
    """Flight-recorder gate (``--smoke --chaos``): the injected fault's
    degrade must have captured a debug bundle, downloadable (over real HTTP
    when the sidecar is live) with the trace, metrics snapshot, and live
    context intact."""
    import json
    import urllib.request

    flight = engine.flight
    ids = flight.bundle_ids() if flight is not None else []
    degrade = [i for i in ids if "degrade" in i]
    ok = bool(degrade)
    if ok:
        bid = degrade[-1]
        if obs is not None:
            with urllib.request.urlopen(f"{obs.url}/debug/bundle/{bid}",
                                        timeout=10) as resp:
                doc = json.loads(resp.read().decode())
        else:
            doc = flight.bundle(bid)
        ok = (doc is not None and doc.get("reason") == "degrade"
              and bool(doc.get("metrics")) and "context" in doc)
    print(f"smoke flightrec: {len(ids)} bundle(s) "
          f"({', '.join(ids) if ids else 'none'}); degrade bundle "
          f"{'downloaded and parsed' if ok else 'MISSING'} → "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def cmd_trace(args) -> int:
    """Offline capture: serve a workload once and write one request's trace
    as Chrome-trace JSON (open in Perfetto or ``chrome://tracing``)."""
    import json

    from .service import Engine, load_workload

    if args.smoke:
        spec = _SMOKE_SPEC
    elif args.workload:
        try:
            spec = load_workload(args.workload)
        except FileNotFoundError:
            raise SystemExit(f"workload file not found: {args.workload}")
        except (json.JSONDecodeError, ValueError) as e:
            raise SystemExit(f"bad workload spec {args.workload}: {e}")
    else:
        raise SystemExit("provide a workload.json or --smoke")

    engine = Engine()
    try:
        responses, failures, _, _ = _serve_once(spec, args, engine=engine)
        traced = [r for r in responses if r.stats.trace_id]
        if not traced:
            raise SystemExit("no traces captured (every request failed?)")
        # default index 0 = the stream's first request: the cold one, whose
        # flame view shows the full symbolic→numeric story
        try:
            resp = traced[args.index]
        except IndexError:
            raise SystemExit(f"--index {args.index} out of range: only "
                             f"{len(traced)} traced requests")
        rec = engine.tracer.get(resp.stats.trace_id)
        if rec is None:
            raise SystemExit(f"trace {resp.stats.trace_id} aged out of the "
                             f"tracer ring (capacity {engine.tracer.capacity})"
                             f" — pick a later --index")
        doc = rec.chrome()
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"wrote {args.output}: request {rec.trace_id} "
              f"({len(rec.spans)} spans) — open in Perfetto or "
              f"chrome://tracing")
        for tag, exc in failures[:5]:
            print(f"FAILED request {tag!r}: {type(exc).__name__}: {exc}")
        return 1 if failures else 0
    finally:
        engine.close()


def cmd_bundle(args) -> int:
    """Offline flight-recorder capture: serve a workload once, force a
    manual debug bundle (trace + metrics snapshot + request ring + live
    engine context), and copy it to ``--output`` for attachment to a bug
    report. Any bundles captured *during* the run (resilience edges under
    ``--chaos`` / ``$REPRO_FAULTS``) are listed too."""
    import json
    import shutil

    from .service import Engine, load_workload

    if args.smoke:
        spec = _SMOKE_SPEC
    elif args.workload:
        try:
            spec = load_workload(args.workload)
        except FileNotFoundError:
            raise SystemExit(f"workload file not found: {args.workload}")
        except (json.JSONDecodeError, ValueError) as e:
            raise SystemExit(f"bad workload spec {args.workload}: {e}")
    else:
        raise SystemExit("provide a workload.json or --smoke")

    faults = None
    if getattr(args, "chaos", False):
        from .resilience import FaultPlan

        faults = FaultPlan.from_env() or FaultPlan.parse(_CHAOS_DEFAULT)
        print(f"chaos: injecting {faults!r}")

    engine = Engine(faults=faults)
    try:
        responses, failures, _, _ = _serve_once(spec, args, engine=engine)
        edge_ids = engine.flight.bundle_ids()
        bid = engine.flight.capture(
            "manual", detail=f"repro bundle ({len(responses)} responses, "
                             f"{len(failures)} failures)", force=True)
        if bid is None:
            raise SystemExit("bundle capture failed (spool unwritable?)")
        shutil.copyfile(engine.flight.bundle_path(bid), args.output)
        doc = engine.flight.bundle(bid)
        print(f"wrote {args.output}: bundle {bid} "
              f"({len(doc.get('ring', []))} ring entries, "
              f"{len(doc.get('metrics', ''))} metric bytes)")
        for eid in edge_ids:
            edge = engine.flight.bundle(eid) or {}
            print(f"  also captured during run: {eid} "
                  f"({edge.get('detail', '')})")
        return 1 if failures else 0
    finally:
        engine.close()


def cmd_profile(args) -> int:
    """Run a workload under the sampling profiler and write collapsed
    stacks (``stack;frames count`` lines). Feed the output to
    ``flamegraph.pl`` or drag it into https://speedscope.app (Import →
    collapsed stacks). By default samples are kept only while a numeric or
    cold-symbolic span is open, so the profile answers "where does kernel
    time go" rather than "where does the interpreter idle"."""
    import json

    from .obs import SamplingProfiler
    from .service import Engine, load_workload

    if args.smoke:
        spec = _SMOKE_SPEC
    elif args.workload:
        try:
            spec = load_workload(args.workload)
        except FileNotFoundError:
            raise SystemExit(f"workload file not found: {args.workload}")
        except (json.JSONDecodeError, ValueError) as e:
            raise SystemExit(f"bad workload spec {args.workload}: {e}")
    else:
        raise SystemExit("provide a workload.json or --smoke")

    spans = None
    if args.spans != "all":
        spans = [s.strip() for s in args.spans.split(",") if s.strip()]
        if not spans:
            raise SystemExit("--spans needs span names or 'all'")

    engine = Engine()
    try:
        prof = SamplingProfiler(interval=args.interval, spans=spans)
        with prof:
            responses, failures, _, seconds = _serve_once(spec, args,
                                                          engine=engine)
        text = prof.collapsed()
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        nstacks = len(text.splitlines())
        scope = "all threads" if spans is None else f"spans {spans}"
        print(f"wrote {args.output}: {nstacks} distinct stacks from "
              f"{prof.samples} wake-ups over {seconds * 1e3:.0f} ms "
              f"({scope}, interval {args.interval * 1e3:g} ms) — "
              f"flamegraph.pl or speedscope.app can render it")
        if not nstacks:
            print("note: no samples landed inside the selected spans — "
                  "try a larger workload, a smaller --interval, or "
                  "--spans all")
        for tag, exc in failures[:5]:
            print(f"FAILED request {tag!r}: {type(exc).__name__}: {exc}")
        return 1 if failures else 0
    finally:
        engine.close()


def cmd_suite(args) -> int:
    from .graphs import SUITE_SPECS, load_graph

    print(f"{'name':15s} {'n':>7s} {'nnz':>9s}  description")
    for name, (desc, _) in SUITE_SPECS.items():
        g = load_graph(name)
        print(f"{name:15s} {g.nrows:7d} {g.nnz:9d}  {desc}")
    return 0


def cmd_info(args) -> int:
    from . import __version__
    from .core import algorithm_info, available_algorithms, display_name
    from .core.registry import BASELINE_KEYS
    from .semiring.standard import _REGISTRY

    print(f"repro {__version__} — Masked SpGEMM (Milaković et al., PPoPP'22)")
    print("\nkernels:")
    for key in available_algorithms():
        spec = algorithm_info(key)
        compl = "±mask" if spec.supports_complement else "mask only"
        print(f"  {display_name(key):12s} [{spec.family:5s}, {compl:9s}] "
              f"{spec.description}")
    print(f"\nbaselines: {', '.join(BASELINE_KEYS)}")
    print(f"semirings: {', '.join(sorted(set(_REGISTRY)))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Masked SpGEMM reproduction — paper workloads from the "
                    "command line")
    sub = p.add_subparsers(dest="command", required=True)

    tc = sub.add_parser("tc", help="triangle counting")
    _add_graph_args(tc)
    tc.set_defaults(fn=cmd_tc)

    kt = sub.add_parser("ktruss", help="k-truss decomposition")
    _add_graph_args(kt)
    kt.add_argument("--k", type=int, default=5)
    kt.add_argument("--output", "-o", help="write surviving edges as .mtx")
    kt.set_defaults(fn=cmd_ktruss)

    dl = sub.add_parser(
        "delta",
        help="streaming demo: k-truss via edge deltas (spliced plans + "
             "patched results) vs full re-plan per iteration")
    _add_graph_args(dl)
    dl.add_argument("--k", type=int, default=5)
    dl.set_defaults(fn=cmd_delta)

    bc = sub.add_parser("bc", help="betweenness centrality (batch)")
    _add_graph_args(bc)
    bc.add_argument("--batch", type=int, default=32)
    bc.add_argument("--top", type=int, default=5)
    bc.set_defaults(fn=cmd_bc)

    sp = sub.add_parser("spgemm", help="masked product of two .mtx files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--mask", "-m")
    sp.add_argument("--complement", action="store_true")
    sp.add_argument("--algorithm", "-a", dest="algorithm", default="auto")
    sp.add_argument("--phases", type=int, choices=(1, 2), default=1)
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn=cmd_spgemm)

    def _add_pool_flags(sp_: argparse.ArgumentParser) -> None:
        sp_.add_argument("workload", nargs="?",
                         help="JSON workload spec (see repro.service."
                              "workload)")
        sp_.add_argument("--smoke", action="store_true",
                         help="use the built-in repeated-mask TC workload")
        sp_.add_argument("--workers", type=int, default=2,
                         help="async worker pool size (default 2)")
        sp_.add_argument("--max-inflight", type=int, default=64,
                         help="admission bound: admitted-but-unfinished "
                              "requests")
        sp_.add_argument("--max-queued-mflops", type=float, default=0,
                         help="admission bound: estimated queued partial "
                              "products in millions (0 = unbounded)")

    sv = sub.add_parser(
        "serve",
        help="serve a JSON workload through the async front end "
             "(admission + backpressure + plan/result caches + persistence)")
    _add_pool_flags(sv)
    sv.add_argument("--plans", metavar="PLANS.npz",
                    help="plan store path: restored at startup (if present), "
                         "persisted at shutdown")
    sv.add_argument("--result-cache-mb", type=float, default=256,
                    help="result-cache budget in MiB (0 disables the tier)")
    sv.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                    help="serve /metrics (Prometheus) and /trace/<id>.json "
                         "(Chrome trace) on 127.0.0.1:PORT while the run is "
                         "live (0 = ephemeral port; with --smoke the gate "
                         "also asserts the endpoints)")
    sv.add_argument("--chaos", action="store_true",
                    help="inject faults from $REPRO_FAULTS (default: "
                         f"{_CHAOS_DEFAULT}, failing a kernel call and its "
                         "first fallback); with --smoke the gate asserts "
                         "completion, bit-identical degraded results, and a "
                         "degrade flight bundle")
    sv.add_argument("--slo", action="append", metavar="SPEC",
                    help="declare a service objective, e.g. p99=50ms:0.99 "
                         "(99%% of requests under 50 ms) or "
                         "availability=0.999; "
                         "repeatable. Burn rates are served at /slo and "
                         "exported as repro_slo_*; with --smoke the gate "
                         "requires an alerting objective with a resolvable "
                         "exemplar trace (use a breaching threshold such as "
                         "p99=100us:0.99)")
    sv.set_defaults(fn=cmd_serve)

    tr = sub.add_parser(
        "trace",
        help="serve a workload once and export one request's phase trace "
             "as Chrome-trace JSON (Perfetto / chrome://tracing)")
    _add_pool_flags(tr)
    tr.add_argument("--output", "-o", default="trace.json",
                    help="output path for the Chrome-trace JSON "
                         "(default trace.json)")
    tr.add_argument("--index", type=int, default=0,
                    help="which traced request to export (0 = the stream's "
                         "first/cold request; negative indexes from the end)")
    tr.set_defaults(fn=cmd_trace)

    bu = sub.add_parser(
        "bundle",
        help="serve a workload once and capture a flight-recorder debug "
             "bundle (trace + metrics + request ring + engine context) "
             "for attachment to a bug report")
    _add_pool_flags(bu)
    bu.add_argument("--output", "-o", default="bundle.json",
                    help="output path for the bundle JSON "
                         "(default bundle.json)")
    bu.add_argument("--chaos", action="store_true",
                    help="inject faults from $REPRO_FAULTS (default: "
                         f"{_CHAOS_DEFAULT}) so resilience-edge bundles "
                         "are captured during the run too")
    bu.set_defaults(fn=cmd_bundle)

    pr = sub.add_parser(
        "profile",
        help="run a workload under the sampling profiler and write "
             "collapsed stacks (flamegraph.pl / speedscope.app)")
    _add_pool_flags(pr)
    pr.add_argument("--output", "-o", default="profile.txt",
                    help="output path for collapsed stacks "
                         "(default profile.txt)")
    pr.add_argument("--interval", type=float, default=0.001,
                    help="sampling interval in seconds (default 0.001)")
    pr.add_argument("--spans", default="numeric,symbolic.cold",
                    help="comma-separated span names to scope samples to, "
                         "or 'all' for whole-process profiling (default "
                         "numeric,symbolic.cold: kernel time only)")
    pr.set_defaults(fn=cmd_profile)

    su = sub.add_parser("suite", help="list the built-in input suite")
    su.set_defaults(fn=cmd_suite)

    info = sub.add_parser("info", help="algorithms, baselines, semirings")
    info.set_defaults(fn=cmd_info)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
