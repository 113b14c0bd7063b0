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
    python -m repro serve --smoke        # the built-in repeated-mask workload
    python -m repro serve workload.json --metrics-port 9100  # live /metrics
    REPRO_FAULTS=engine.kernel:error:2 python -m repro serve --smoke  # faults
    python -m repro serve --smoke --slo p99=50ms:0.99  # burn-rate SLO
    python -m repro trace workload.json -o trace.json  # offline flame trace
    python -m repro bundle --smoke -o bundle.json  # debug bundle
    python -m repro profile workload.json -o prof.txt  # collapsed stacks
    python -m repro suite                # list the built-in input suite
    python -m repro info                 # algorithms and semirings

The CLI exists so a downstream user with real SuiteSparse ``.mtx`` files can
reproduce the paper's workloads without writing Python. It only parses
arguments and prints: the serving subcommands replay a workload through
:func:`repro.service.serve_workload`, and the serving contract they rely
on is checked by ``tests/test_serve_gate.py``.
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
                   help="masked kernel (msa/esc/hash/mca/heap/heapdot/"
                        "inner/auto or a baseline)")
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
    """Streaming-graph demo: k-truss iterated via edge deltas against plain
    :func:`ktruss`, both at ``--phases`` (default one-phase). The delta
    path registers the support matrix once and applies each iteration's
    pruned edges as a delete batch, which swaps the store entry and
    invalidates the results that read the old content. Exits 1 unless the
    two subgraphs are bit-identical."""
    from .algorithms import ktruss, ktruss_delta
    from .service import Engine

    g = _load_graph_arg(args)
    engine = Engine(result_cache_bytes=512 << 20)
    outcomes = []

    def apply_delta(key, batch, _apply=engine.apply_delta):
        outcomes.append(_apply(key, batch))
        return outcomes[-1]

    engine.apply_delta = apply_delta
    t0 = time.perf_counter()
    inc = ktruss_delta(g, args.k, algorithm=args.algorithm,
                       phases=args.phases, engine=engine)
    t_delta = time.perf_counter() - t0
    t0 = time.perf_counter()
    full = ktruss(g, args.k, algorithm=args.algorithm, phases=args.phases)
    t_full = time.perf_counter() - t0

    identical = (np.array_equal(inc.subgraph.indptr, full.subgraph.indptr)
                 and np.array_equal(inc.subgraph.indices,
                                    full.subgraph.indices)
                 and np.array_equal(inc.subgraph.data, full.subgraph.data))
    mean_frac = (sum(o.dirty_fraction for o in outcomes)
                 / max(len(outcomes), 1))
    invalidated = sum(o.results_invalidated for o in outcomes)
    print(f"{args.k}-truss, {inc.subgraph.nnz // 2} edges survive "
          f"({inc.iterations} iterations)")
    print(f"  delta serving : {t_delta * 1e3:8.1f} ms  "
          f"(mean dirty fraction {mean_frac:.3f} over {len(outcomes)} "
          f"deltas, {invalidated} results invalidated)")
    print(f"  ktruss()      : {t_full * 1e3:8.1f} ms  "
          f"({args.phases}-phase, direct masked_spgemm)")
    print(f"  ratio         : {t_delta / max(t_full, 1e-9):8.2f}x   "
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


def _load_spec(args) -> dict:
    """The workload a serving subcommand replays: the built-in one under
    ``--smoke``, else the JSON file named on the command line."""
    import json

    from .service import SMOKE_WORKLOAD, load_workload

    if args.smoke:
        return SMOKE_WORKLOAD
    if not args.workload:
        raise SystemExit("provide a workload.json or --smoke")
    try:
        return load_workload(args.workload)
    except FileNotFoundError:
        raise SystemExit(f"workload file not found: {args.workload}")
    except (json.JSONDecodeError, ValueError) as e:
        raise SystemExit(f"bad workload spec {args.workload}: {e}")


def _serve(args, engine, spec):
    """:func:`repro.service.serve_workload` with the pool flags."""
    from .service import serve_workload

    try:
        return serve_workload(
            engine, spec, workers=args.workers,
            max_inflight=args.max_inflight,
            max_queued_flops=(int(args.max_queued_mflops * 1e6)
                              if args.max_queued_mflops else None))
    except ValueError as e:
        # malformed spec contents (unknown request/matrix field, bad prep)
        raise SystemExit(f"bad workload spec: {e}")


def _print_failures(failures) -> None:
    for tag, exc in failures[:5]:
        print(f"FAILED request {tag!r}: {type(exc).__name__}: {exc}")
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failures")


def cmd_serve(args) -> int:
    """Replay a workload through the async front end and print the serving
    report; exits 1 when any request failed. Kernel faults are injected
    through ``$REPRO_FAULTS``."""
    from .service import Engine, render_serve_report

    spec = _load_spec(args)
    slos = None
    if args.slo:
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
                    slos=slos)
    if engine.faults is not None:
        print(f"faults: injecting {engine.faults!r}")
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
        responses, failures, server, seconds = _serve(args, engine, spec)
        print(render_serve_report(engine, server, responses, seconds))
        _print_failures(failures)
        return 1 if failures else 0
    finally:
        if obs is not None:
            obs.close()
        engine.close()


def cmd_trace(args) -> int:
    """Offline capture: serve a workload once and write one request's trace
    as Chrome-trace JSON (open in Perfetto or ``chrome://tracing``)."""
    import json

    from .service import Engine

    spec = _load_spec(args)
    engine = Engine()
    try:
        responses, failures, _, _ = _serve(args, engine, spec)
        traced = [r for r in responses if r.stats.trace_id]
        if not traced:
            raise SystemExit("no traces captured (every request failed?)")
        # default index 0 = the stream's first request: the one that runs
        # alone and computes, whose flame view shows the numeric pass
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
        _print_failures(failures)
        return 1 if failures else 0
    finally:
        engine.close()


def cmd_bundle(args) -> int:
    """Offline flight-recorder capture: serve a workload once, force a
    manual debug bundle (trace + metrics snapshot + request ring + live
    engine context), and copy it to ``--output`` for attachment to a bug
    report. Any bundles captured *during* the run (resilience edges, e.g.
    a degrade under ``$REPRO_FAULTS``) are listed too."""
    import shutil

    from .service import Engine

    spec = _load_spec(args)
    engine = Engine()
    try:
        responses, failures, _, _ = _serve(args, engine, spec)
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
    collapsed stacks). By default samples are kept only while a numeric
    span is open, so the profile answers "where does kernel time go"
    rather than "where does the interpreter idle"."""
    from .obs import SamplingProfiler
    from .service import Engine

    spec = _load_spec(args)
    spans = None
    if args.spans != "all":
        spans = [s.strip() for s in args.spans.split(",") if s.strip()]
        if not spans:
            raise SystemExit("--spans needs span names or 'all'")

    engine = Engine()
    try:
        prof = SamplingProfiler(interval=args.interval, spans=spans)
        with prof:
            responses, failures, _, seconds = _serve(args, engine, spec)
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
        _print_failures(failures)
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
        help="streaming demo: k-truss via edge deltas vs plain ktruss(), "
             "checked bit-identical")
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
             "(admission + backpressure + result cache)")
    _add_pool_flags(sv)
    sv.add_argument("--result-cache-mb", type=float, default=256,
                    help="result-cache budget in MiB (0 disables the tier)")
    sv.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                    help="serve /metrics (Prometheus), /slo, "
                         "/trace/<id>.json (Chrome trace) and /debug/bundles "
                         "on 127.0.0.1:PORT while the run is live "
                         "(0 = ephemeral port)")
    sv.add_argument("--slo", action="append", metavar="SPEC",
                    help="declare a service objective, e.g. p99=50ms:0.99 "
                         "(99%% of requests under 50 ms) or "
                         "availability=0.999; "
                         "repeatable. Burn rates are served at /slo and "
                         "exported as repro_slo_*")
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
                         "first request, which computes; negative indexes "
                         "from the end)")
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
    pr.add_argument("--spans", default="numeric",
                    help="comma-separated span names to scope samples to, "
                         "or 'all' for whole-process profiling (default "
                         "numeric: kernel time only)")
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
