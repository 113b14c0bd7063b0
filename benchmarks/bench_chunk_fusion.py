"""Chunk fusion — the per-row loop tier vs fused kernels, direct write, chunk sizing.

The claim (ISSUE 2, extended by ISSUE 4): on low-degree workloads the
"vectorized" per-row kernels are bound by interpreter overhead (~8 small
numpy calls per row), so fusing whole row-chunks into flat numpy passes
should win big — and once a two-phase plan supplies exact row sizes, the
numeric pass should write straight into the final CSR arrays instead of
paying the stitch copy. Faces:

* **fused vs loop** — fused ``msa``/``esc`` against ``msa-loop``, the
  per-row loop tier the fused routing fallback picks for long rows, on the
  TC / ktruss-support / complement grids. Gate: fused ≥ 3× on the scale-10
  TC point (the better of msa and esc vs msa-loop).
* **warm two-phase direct write vs stitch** — a cached plan in hand, the
  old warm path (single maximal chunk, RowBlock concat + stitch copy) vs
  the new one (cache-budget chunks scattering into preallocated arrays).
  Gate: ≥ 1.3× on at least one TC/complement face.
* **chunk-size ablation** — the cache-budget sweep
  (:func:`repro.parallel.partition.chunk_budget`) against the old
  ``nworkers × 4`` heuristic, on the largest TC face.

Every fused result is checked bit-identical against the msa-loop result
(and the smallest TC case against the pure-Python reference tier) before
timings are recorded.

``main()`` appends a run to ``BENCH_kernels.json`` at the repo root — the
perf-trajectory artifact documented in ``benchmarks/common.py`` and
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, tc_workload
from repro.bench import render_table, time_callable
from repro.core import build_plan, masked_spgemm
from repro.core.reference import reference_masked_spgemm
from repro.graphs import erdos_renyi, rmat
from repro.graphs.prep import to_undirected_simple
from repro.mask import Mask
from repro.parallel.partition import chunk_budget
from repro.parallel.runner import parallel_masked_spgemm
from repro.semiring import PLUS_PAIR, PLUS_TIMES

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: acceptance gates: fused msa/esc speedup over the msa-loop tier on this
#: case, and warm-2P direct-write speedup over the stitch path on ≥ 1 face
GATE_CASE, GATE_MIN_SPEEDUP = "tc-rmat-s10-e8", 3.0
DIRECT_GATE_MIN_SPEEDUP = 1.3
#: auto-routing gate (ISSUE 6): on the large ktruss-support face the
#: dispatcher must route to the per-row msa-loop tier and be no slower
#: than the fused kernel it used to pick
AUTO_GATE_CASE, AUTO_GATE_MIN_SPEEDUP = "ktruss-support-rmat-s10-e8", 1.0

def _runner(A, B, mask, semiring, algorithm):
    return lambda: masked_spgemm(A, B, mask, algorithm=algorithm,
                                 semiring=semiring)


def _bit_identical(got, want) -> bool:
    """Strict contract: same pattern AND the same float bits (no tolerance)."""
    return got.same_pattern(want) and np.array_equal(got.data, want.data)


def _cases():
    """(case_name, workload_kind, A, B, mask, semiring) grid points."""
    out = []
    for s in (8, 9, 10):
        g = rmat(s, 8, rng=7000 + s)
        L, mask = tc_workload(g)
        out.append((f"tc-rmat-s{s}-e8", "tc", L, L, mask, PLUS_PAIR))
    for s in (9, 10):
        E = to_undirected_simple(rmat(s, 8, rng=7100 + s))
        out.append((f"ktruss-support-rmat-s{s}-e8", "ktruss-support",
                    E, E, Mask.from_matrix(E), PLUS_PAIR))
    for n_log in (9, 10):
        n = 1 << n_log
        A = erdos_renyi(n, 8, rng=7200 + n_log)
        B = erdos_renyi(n, 8, rng=7300 + n_log)
        M = erdos_renyi(n, 8, rng=7400 + n_log)
        out.append((f"complement-er-s{n_log}-d8", "complement",
                    A, B, Mask.from_matrix(M, complemented=True), PLUS_TIMES))
    return out


def _direct_cases():
    """Larger faces for the warm-2P direct-write gate: streams big enough
    that assembly copies and chunk cache residency matter."""
    g = rmat(13, 8, rng=7013)
    L, mask = tc_workload(g)
    out = [(f"tc-rmat-s13-e8", "tc", L, L, mask, PLUS_PAIR,
            ("esc", "msa", "hash", "heap"))]
    n = 1 << 12
    A = erdos_renyi(n, 32, rng=7505)
    B = erdos_renyi(n, 32, rng=7506)
    M = erdos_renyi(n, 32, rng=7507)
    out.append(("complement-er-s12-d32", "complement", A, B,
                Mask.from_matrix(M, complemented=True), PLUS_TIMES,
                ("esc", "msa", "hash")))
    return out


def _bench_fused_vs_loop(results, rows):
    emit("== fused kernels vs the msa-loop tier ==")
    gate = {}
    for case, kind, A, B, mask, semiring in _cases():
        loop = _runner(A, B, mask, semiring, "msa-loop")
        loop_result = loop()  # baseline for identity
        loop_seconds = time_callable(loop, repeats=3, warmup=1)
        results.append({"case": case, "workload": kind, "scheme": "msa-loop",
                        "seconds": loop_seconds, "speedup_vs_loop": 1.0,
                        "identical_to_loop": True})
        rows.append([case, "msa-loop", loop_seconds * 1e3, 1.0, "yes"])
        for alg in ("msa", "esc"):
            fused = _runner(A, B, mask, semiring, alg)
            same = _bit_identical(fused(), loop_result)
            seconds = time_callable(fused, repeats=3, warmup=1)
            speedup = loop_seconds / seconds
            results.append({"case": case, "workload": kind, "scheme": alg,
                            "seconds": seconds, "speedup_vs_loop": speedup,
                            "identical_to_loop": bool(same)})
            rows.append([case, alg, seconds * 1e3, speedup,
                         "yes" if same else "NO"])
            if case == GATE_CASE:
                gate[alg] = speedup
    return gate


def _expected_auto_pick() -> str:
    """What auto must pick on the ktruss-support gate case: the compiled
    msa when the native probe passes (it subsumes the loop tier's
    dispatch-overhead win), the per-row loop tier otherwise."""
    from repro.native import native_available

    return "msa-native" if native_available() else "msa-loop"


def _bench_auto_routing(results, rows):
    """ISSUE 6 face: the ktruss-support regime (C = E·E masked by E, long
    skewed rows) should route ``auto`` to the per-row ``msa-loop`` tier on
    the scale-10 point (``msa-native`` once the compiled tier is live) —
    and that routing must not lose to the fused ``msa`` the dispatcher
    previously picked."""
    from repro.core.registry import auto_select

    emit("\n== auto routing: ktruss-support loop tier ==")
    gate = {}
    for s in (9, 10):
        case = f"ktruss-support-rmat-s{s}-e8"
        E = to_undirected_simple(rmat(s, 8, rng=7100 + s))
        mask = Mask.from_matrix(E)
        picked = auto_select(E, E, mask)
        auto_run = _runner(E, E, mask, PLUS_PAIR, "auto")
        msa_run = _runner(E, E, mask, PLUS_PAIR, "msa")
        same = _bit_identical(auto_run(), msa_run())
        t_auto = time_callable(auto_run, repeats=3, warmup=1)
        t_msa = time_callable(msa_run, repeats=3, warmup=1)
        speedup = t_msa / t_auto
        results.append({"case": case, "workload": "auto-routing",
                        "scheme": f"auto({picked})", "seconds": t_auto,
                        "speedup_vs_msa_fused": speedup,
                        "identical_to_loop": bool(same)})
        rows.append([case, f"auto({picked})", t_auto * 1e3, speedup,
                     "yes" if same else "NO"])
        if case == AUTO_GATE_CASE:
            gate = {"picked": picked, "speedup": speedup, "identical": same}
    return gate


def _bench_direct_write(results, rows):
    emit("\n== warm two-phase: direct write vs stitch ==")
    best = {}
    for case, kind, A, B, mask, semiring, algs in _direct_cases():
        for alg in algs:
            plan = build_plan(A, B, mask, algorithm=alg, phases=2)

            def stitch():
                # the pre-direct-write warm path: one maximal chunk (the old
                # lone-worker heuristic), RowBlock concat + stitch copy
                return parallel_masked_spgemm(
                    A, B, mask, algorithm=alg, semiring=semiring, phases=2,
                    plan=plan, nchunks=1, direct_write=False)

            def direct():
                # the new warm path: cache-budget chunks scattering into
                # preallocated CSR arrays
                return masked_spgemm(A, B, mask, algorithm=alg,
                                     semiring=semiring, phases=2, plan=plan)

            same = _bit_identical(direct(), stitch())
            t_stitch = time_callable(stitch, repeats=3, warmup=1)
            t_direct = time_callable(direct, repeats=3, warmup=1)
            speedup = t_stitch / t_direct
            for scheme, sec in ((f"{alg}-2p-stitch", t_stitch),
                                (f"{alg}-2p-direct", t_direct)):
                results.append({"case": case, "workload": f"warm2p-{kind}",
                                "scheme": scheme, "seconds": sec,
                                "speedup_vs_stitch": (1.0 if "stitch" in scheme
                                                      else speedup),
                                "identical_to_loop": bool(same)})
            rows.append([case, f"{alg}-2p-direct", t_direct * 1e3,
                         speedup, "yes" if same else "NO"])
            best[(case, alg)] = speedup
    return best


def _bench_chunk_ablation(results, rows):
    """Budget sweep vs the old worker-count heuristic, warm 2P on the
    largest TC face (serial: the old heuristic gave one maximal chunk)."""
    emit("\n== chunk-size ablation: cache budget vs nworkers×4 ==")
    g = rmat(13, 8, rng=7013)
    L, mask = tc_workload(g)
    plan = build_plan(L, L, mask, algorithm="esc", phases=2)
    case = "tc-rmat-s13-e8"

    def runner(nchunks):
        return lambda: parallel_masked_spgemm(
            L, L, mask, algorithm="esc", semiring=PLUS_PAIR, phases=2,
            plan=plan, nchunks=nchunks)

    points = [("nworkersx4-serial", 1)]  # old heuristic, 1 worker → 1 chunk
    from repro.core.expand import total_flops

    work = total_flops(L, L) + mask.nnz
    for mib in (1, 4, 16, 64):
        budget = chunk_budget(mib << 20)
        points.append((f"budget-{mib}MiB",
                       max(1, int(np.ceil(work / budget)))))
    for label, nchunks in points:
        seconds = time_callable(runner(nchunks), repeats=3, warmup=1)
        results.append({"case": case, "workload": "chunk-ablation",
                        "scheme": label, "seconds": seconds,
                        "nchunks": int(nchunks)})
        rows.append([case, label, seconds * 1e3,
                     float("nan"), f"n={nchunks}"])


def main() -> None:
    emit("[Chunk fusion] msa-loop tier vs fused kernels, direct write, "
         "chunk sizing")
    emit("msa-loop = per-row routing tier; msa/esc/hash/heap = "
         "chunk-fused; *-2p-direct = warm plan + direct-to-CSR writes\n")

    # bit-identity spot check against the pure-Python reference tier
    g = rmat(8, 8, rng=7008)
    L, mask = tc_workload(g)
    ref = reference_masked_spgemm(L, L, mask, "msa", PLUS_PAIR)
    for alg in ("msa", "esc", "hash", "heap"):
        got = masked_spgemm(L, L, mask, algorithm=alg, semiring=PLUS_PAIR)
        assert _bit_identical(got, ref), alg
    emit("reference-tier check: msa/esc/hash/heap bit-identical on "
         "tc-rmat-s8-e8 ✓\n")

    results, rows = [], []
    gate = _bench_fused_vs_loop(results, rows)
    auto_gate = _bench_auto_routing(results, rows)
    direct = _bench_direct_write(results, rows)
    _bench_chunk_ablation(results, rows)
    emit(render_table(["case", "scheme", "time (ms)", "speedup", "note"],
                      rows))

    append_trajectory_run(ARTIFACT, "chunk_fusion", results)
    emit(f"\nappended run to {ARTIFACT.name} ({len(results)} results)")

    fused = max(gate.get("msa", 0.0), gate.get("esc", 0.0))
    verdict = "PASS" if fused >= GATE_MIN_SPEEDUP else "FAIL"
    emit(f"acceptance gate [{GATE_CASE}] msa/esc: best fused speedup "
         f"{fused:.1f}x over msa-loop (need ≥ {GATE_MIN_SPEEDUP:.0f}x) → "
         f"{verdict}")
    best_face = max(direct, key=direct.get)
    best = direct[best_face]
    verdict = "PASS" if best >= DIRECT_GATE_MIN_SPEEDUP else "FAIL"
    emit(f"acceptance gate [warm-2p direct write]: best "
         f"{best:.2f}x on {best_face[0]}/{best_face[1]} "
         f"(need ≥ {DIRECT_GATE_MIN_SPEEDUP}x on ≥1 face) → {verdict}")
    want_pick = _expected_auto_pick()
    ok_auto = (auto_gate.get("picked") == want_pick
               and auto_gate.get("identical", False)
               and auto_gate.get("speedup", 0.0) >= AUTO_GATE_MIN_SPEEDUP)
    verdict = "PASS" if ok_auto else "FAIL"
    emit(f"acceptance gate [{AUTO_GATE_CASE}] auto routing: picked "
         f"{auto_gate.get('picked')!r} (need {want_pick!r}), "
         f"{auto_gate.get('speedup', 0.0):.2f}x vs fused msa "
         f"(need ≥ {AUTO_GATE_MIN_SPEEDUP:.1f}x) → {verdict}")


# ----------------------------------------------------------------------- #
# pytest-benchmark faces (`pytest benchmarks/ --benchmark-only -k chunk`)
# ----------------------------------------------------------------------- #
def test_chunk_fusion_msa_loop(benchmark, tc_small):
    L, mask = tc_small
    benchmark.pedantic(_runner(L, L, mask, PLUS_PAIR, "msa-loop"),
                       rounds=3, warmup_rounds=1)


def test_chunk_fusion_msa_fused(benchmark, tc_small):
    L, mask = tc_small
    got = benchmark.pedantic(_runner(L, L, mask, PLUS_PAIR, "msa"),
                             rounds=3, warmup_rounds=1)
    assert _bit_identical(got, _runner(L, L, mask, PLUS_PAIR, "msa-loop")())


def test_chunk_fusion_esc(benchmark, tc_small):
    L, mask = tc_small
    got = benchmark.pedantic(_runner(L, L, mask, PLUS_PAIR, "esc"),
                             rounds=3, warmup_rounds=1)
    assert _bit_identical(got, _runner(L, L, mask, PLUS_PAIR, "msa-loop")())


def test_chunk_fusion_esc_complement(benchmark, density_problem):
    A, B, mask = density_problem
    cmask = mask.complement()
    got = benchmark.pedantic(_runner(A, B, cmask, PLUS_TIMES, "esc"),
                             rounds=3, warmup_rounds=1)
    assert _bit_identical(got,
                          _runner(A, B, cmask, PLUS_TIMES, "msa-loop")())


def test_chunk_fusion_direct_write_warm(benchmark, tc_small):
    """Warm-2P direct-write path (plan hit → preallocate → scatter)."""
    L, mask = tc_small
    plan = build_plan(L, L, mask, algorithm="esc", phases=2)
    got = benchmark.pedantic(
        lambda: masked_spgemm(L, L, mask, algorithm="esc",
                              semiring=PLUS_PAIR, phases=2, plan=plan),
        rounds=3, warmup_rounds=1)
    assert _bit_identical(got, _runner(L, L, mask, PLUS_PAIR, "esc")())


def test_chunk_fusion_auto_ktruss_loop(benchmark):
    """Routing face: on the large ktruss-support regime ``auto`` must pick
    the per-row msa-loop tier (msa-native when the compiled tier is live)
    and stay bit-identical to fused msa."""
    from repro.core.registry import auto_select

    E = to_undirected_simple(rmat(10, 8, rng=7110))
    mask = Mask.from_matrix(E)
    assert auto_select(E, E, mask) == _expected_auto_pick()
    got = benchmark.pedantic(_runner(E, E, mask, PLUS_PAIR, "auto"),
                             rounds=3, warmup_rounds=1)
    assert _bit_identical(got, _runner(E, E, mask, PLUS_PAIR, "msa")())


def test_chunk_fusion_budget_ablation_smoke(benchmark, tc_small):
    """Smallest-grid budget sweep: cache-budget chunking must stay within
    noise of the single-chunk heuristic on a grid that fits one budget."""
    L, mask = tc_small
    plan = build_plan(L, L, mask, algorithm="esc", phases=2)
    single = parallel_masked_spgemm(L, L, mask, algorithm="esc",
                                    semiring=PLUS_PAIR, phases=2, plan=plan,
                                    nchunks=1)
    got = benchmark.pedantic(
        lambda: parallel_masked_spgemm(L, L, mask, algorithm="esc",
                                       semiring=PLUS_PAIR, phases=2,
                                       plan=plan, nchunks=4),
        rounds=3, warmup_rounds=1)
    assert _bit_identical(got, single)


if __name__ == "__main__":
    main()
