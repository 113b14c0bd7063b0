"""Compiled (native) kernel tier vs the fused NumPy kernels.

PR 9 adds a compiled implementation of the numeric pass behind the same
``numeric_rows``/``numeric_rows_into`` protocol: ``msa-native`` and
``hash-native`` run C loops compiled with cffi + the system C compiler
and fall back to their fused bases bit-identically when that tier is
unavailable. The fused kernels pay
per-row Python dispatch plus a NumPy temporary per accumulator step; the
compiled row loop runs the whole numeric pass in one call, which is where
the paper's single-thread kernel gap lives.

This bench times exactly that swap on the gate workload (**tc-rmat-s13-e8**,
the repeated-mask TC product ``L ⊙ (L·L)``, PLUS_PAIR, 2P, warm plans) for
both accumulator families:

* ``msa`` vs ``msa-native`` — dense-scratch accumulator;
* ``hash`` vs ``hash-native`` — open-addressing accumulator.

Every repeat's output is checked bit-identical against the fused baseline
before its time counts, and the fused baseline itself is checked against
the pure-Python reference tier once (at a smaller scale — the reference
exists for auditability, not speed).

``main()`` appends one ``native``, one ``native_symbolic`` and one
``native_accumulators`` run to ``BENCH_kernels.json`` and one
``thread_scaling`` run to ``BENCH_service.json``:

* **native** (gated): per-kernel fused/native mean latencies; acceptance
  gate (ISSUE 9) is native ≥ **2.0×** over fused for msa and hash both;
* **native_symbolic** (gated): per native key, the fused and the compiled
  symbolic pass (sizes checked equal in every repeat) and a cold
  two-phase product (symbolic + numeric, no plan) against one-phase — the
  best real alternative a caller has. The gate is cold 2P ≤ **2.0×** 1P;
* **native_accumulators** (informational, read across runs): the two
  compiled MSA loops timed alone through the stitch face. ``msa_plain``
  runs three cases: the tc-rmat-s13-e8 product (PLUS_PAIR, the counter
  loop), the plain PLUS_FIRST backward products of one 64-source BC batch
  on an R-MAT s11 graph (a folded two-state loop), and the tc-rmat-s13-e8
  product again under min/times, a compiled pairing outside the standard
  semirings (the runtime-coded loop). ``msa_compl`` runs the complemented
  PLUS_FIRST forward products of the same BC batch twice — with their
  visited masks converted to CSR (``-fwd``, marked and cleared per row) and
  as the bitmaps BC builds (``-fwd-bitmap``, read in place) — and a wide
  product of sparse rows (BC's first forward level for 4096 sources on a
  2^18-vertex uniform random graph), whose gather sorts rather than walks
  its bitset.
  Every repeat is checked bit-identical to fused ``msa``. Each row records
  the git revision of the ``repro`` package it measured, so a run made
  against another checkout's ``src`` (``record_accumulators()`` with that
  ``src`` on ``PYTHONPATH``) is a before/after pair;
* **thread_scaling** (informational): the compiled kernel on a
  :class:`~repro.parallel.executor.ThreadExecutor` at 1/2/4 workers vs
  serial in-process execution. The machine may expose few CPUs, so the
  face records ``cpu_count`` and is deliberately not a scaling gate; it
  proves bit-identity and measures whatever parallelism the machine
  actually offers.

Skips cleanly (exit 0) when the compiled tier is unavailable.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from unittest import mock

import numpy as np

import repro
from common import (append_trajectory_run, emit, git_rev,
                    latest_trajectory_run, tc_workload)
from repro.bench import render_table, spgemm_flops
from repro.bench.metrics import latency_percentiles
from repro.core import build_plan, masked_spgemm
from repro.core.registry import get_spec, native_variant
from repro.core.reference import reference_masked_spgemm
from repro.core.msa_kernel import numeric_rows as fused_msa_rows
from repro.graphs import erdos_renyi, rmat
from repro.graphs.prep import to_undirected_simple
from repro.native import native_available, native_backend_name, warmup
from repro.native.kernels import msa_numeric_rows
from repro.parallel.executor import ThreadExecutor
from repro.parallel.runner import parallel_masked_spgemm
from repro.mask import Mask
from repro.semiring import (MIN_PLUS, PLUS_FIRST, PLUS_PAIR,
                            PLUS_TIMES, Semiring)
from repro.sparse import CSRMatrix

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_KERNELS = ROOT / "BENCH_kernels.json"
ARTIFACT_SERVICE = ROOT / "BENCH_service.json"

#: acceptance gate (ISSUE 9): compiled tier vs its fused base, per kernel
GATE_MIN_SPEEDUP = 2.0
#: symbolic gate: a cold two-phase product (compiled symbolic + numeric)
#: may cost at most this multiple of the one-phase product
GATE_MAX_COLD_2P_RATIO = 2.0

CASE_SCALE, CASE_EDGE = 13, 8
PAIRS = [("msa", "msa-native"), ("hash", "hash-native")]
REPEATS = 5
WARMUP = 2
THREAD_WORKERS = (1, 2, 4)
#: the BC batch whose forward products time msa_compl (bc-batch's shape)
BC_SCALE, BC_EDGE, BC_BATCH = 11, 8, 64
#: the wide complemented product: each row touches ~WIDE_DEGREE columns
#: spread over 2**WIDE_LOG_N / 64 words, so msa_compl sorts its touched list
WIDE_LOG_N, WIDE_DEGREE, WIDE_BATCH = 18, 8, 4096
ACC_REPEATS = 20
#: a compiled pairing outside the standard semirings (min monoid, times
#: multiply): the compiled dispatch runs it with runtime op codes
MIN_TIMES = Semiring(MIN_PLUS.add, PLUS_TIMES.mul, "min_times",
                     mul_scalar=lambda a, b: a * b)


def _case_name(scale=CASE_SCALE, edge=CASE_EDGE):
    return f"tc-rmat-s{scale}-e{edge}-2p"


def _workload(scale=CASE_SCALE, edge=CASE_EDGE):
    return tc_workload(rmat(scale, edge, rng=7000 + scale))


def _identical(out, baseline) -> bool:
    if isinstance(out, np.ndarray):  # symbolic row sizes
        return out.dtype == baseline.dtype and np.array_equal(out, baseline)
    if isinstance(out, list):  # RowBlocks of the accumulator face
        return len(out) == len(baseline) and all(
            np.array_equal(o.sizes, b.sizes) and np.array_equal(o.cols, b.cols)
            and np.array_equal(o.vals, b.vals) for o, b in zip(out, baseline))
    return out.same_pattern(baseline) and np.array_equal(out.data,
                                                         baseline.data)


def _time(fn, baseline, *, repeats=REPEATS, warmup=WARMUP):
    """Warm timings; every repeat is checked bit-identical first."""
    lat = []
    out = None
    for i in range(warmup + repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if baseline is not None:
            assert _identical(out, baseline), "NOT bit-identical"
        if i >= warmup:
            lat.append(dt)
    return lat, out


def _row(case, algorithm, latencies, **extra):
    pct = latency_percentiles(latencies, percentiles=(50, 95))
    row = {"case": case, "algorithm": algorithm,
           "repeats": len(latencies),
           "mean_ms": float(np.mean(latencies)) * 1e3,
           "p50_ms": pct[50] * 1e3, "p95_ms": pct[95] * 1e3}
    row.update(extra)
    return row


def bench_native(scale=CASE_SCALE, edge=CASE_EDGE, *, repeats=REPEATS):
    """Fused vs native for both accumulator families; returns
    (mode rows, gate rows)."""
    L, mask = _workload(scale, edge)
    case = _case_name(scale, edge)

    # audit the fused baseline against the reference tier once, where the
    # pure-Python tier is affordable
    sL, smask = _workload(scale=8, edge=4)
    small_fused = masked_spgemm(sL, sL, smask, algorithm="msa",
                                semiring=PLUS_PAIR, phases=2)
    small_ref = reference_masked_spgemm(sL, sL, smask, algorithm="msa",
                                        semiring=PLUS_PAIR)
    assert small_fused.same_pattern(small_ref) and \
        np.array_equal(small_fused.data, small_ref.data), \
        "fused baseline diverged from the reference tier"

    rows, gates = [], []
    for fused_key, native_key in PAIRS:
        fused_plan = build_plan(L, L, mask, algorithm=fused_key, phases=2)
        native_plan = build_plan(L, L, mask, algorithm=native_key, phases=2)
        fused_lat, baseline = _time(
            lambda: masked_spgemm(L, L, mask, algorithm=fused_key,
                                  semiring=PLUS_PAIR, phases=2,
                                  plan=fused_plan),
            None, repeats=repeats)
        native_lat, _ = _time(
            lambda: masked_spgemm(L, L, mask, algorithm=native_key,
                                  semiring=PLUS_PAIR, phases=2,
                                  plan=native_plan),
            baseline, repeats=repeats)
        rows.append(_row(case, fused_key, fused_lat))
        rows.append(_row(case, native_key, native_lat))
        speedup = float(np.mean(fused_lat) / np.mean(native_lat))
        gates.append({"case": case, "algorithm": native_key,
                      "mode": "native-gate",
                      "backend": native_backend_name(),
                      "fused_mean_ms": float(np.mean(fused_lat)) * 1e3,
                      "native_mean_ms": float(np.mean(native_lat)) * 1e3,
                      "speedup_vs_fused": speedup, "bit_identical": True,
                      "gate_min": GATE_MIN_SPEEDUP,
                      "gate_pass": bool(speedup >= GATE_MIN_SPEEDUP)})
    return rows, gates


def bench_symbolic(scale=CASE_SCALE, edge=CASE_EDGE, *, repeats=REPEATS):
    """Fused vs compiled symbolic pass, and cold 2P vs 1P, per native key;
    returns (mode rows, gate rows)."""
    L, mask = _workload(scale, edge)
    case = f"tc-rmat-s{scale}-e{edge}"
    all_rows = np.arange(L.nrows, dtype=np.int64)

    rows, gates = [], []
    for fused_key, native_key in PAIRS:
        fused_sym = get_spec(fused_key).symbolic
        native_sym = get_spec(native_key).symbolic
        fused_lat, sizes = _time(lambda: fused_sym(L, L, mask, all_rows),
                                 None, repeats=repeats)
        native_lat, _ = _time(lambda: native_sym(L, L, mask, all_rows),
                              sizes, repeats=repeats)
        one_lat, baseline = _time(
            lambda: masked_spgemm(L, L, mask, algorithm=native_key,
                                  semiring=PLUS_PAIR, phases=1),
            None, repeats=repeats)
        cold_lat, _ = _time(
            lambda: masked_spgemm(L, L, mask, algorithm=native_key,
                                  semiring=PLUS_PAIR, phases=2),
            baseline, repeats=repeats)
        rows.append(_row(case, fused_key, fused_lat, mode="symbolic"))
        rows.append(_row(case, native_key, native_lat, mode="symbolic"))
        rows.append(_row(case, native_key, one_lat, mode="1p"))
        rows.append(_row(case, native_key, cold_lat, mode="cold-2p"))
        ratio = float(np.mean(cold_lat) / np.mean(one_lat))
        gates.append({"case": case, "algorithm": native_key,
                      "mode": "symbolic-gate",
                      "backend": native_backend_name(),
                      "fused_symbolic_mean_ms":
                          float(np.mean(fused_lat)) * 1e3,
                      "native_symbolic_mean_ms":
                          float(np.mean(native_lat)) * 1e3,
                      "one_phase_mean_ms": float(np.mean(one_lat)) * 1e3,
                      "cold_2p_mean_ms": float(np.mean(cold_lat)) * 1e3,
                      "cold_2p_over_1p": ratio, "sizes_identical": True,
                      "bit_identical": True,
                      "gate_max": GATE_MAX_COLD_2P_RATIO,
                      "gate_pass": bool(ratio <= GATE_MAX_COLD_2P_RATIO)})
    return rows, gates


def _bc_products(scale=BC_SCALE, edge=BC_EDGE, batch=BC_BATCH, *,
                 complemented=True):
    """The products ``(A, B, mask, semiring)`` of one
    betweenness-centrality batch on a seeded undirected R-MAT graph: the
    complemented forward products (bitmap masks, one per level), or
    (``complemented=False``) the plain backward ones, all PLUS_FIRST."""
    import repro.algorithms.betweenness as bc_mod

    g = to_undirected_simple(rmat(scale, edge, rng=7000 + scale))
    live = np.flatnonzero(g.row_nnz())
    sources = np.sort(np.random.default_rng(scale).choice(
        live, min(batch, live.size), replace=False))
    products = []
    real = bc_mod.masked_spgemm

    def capture(A, B, mask, **kw):
        if mask.complemented == complemented:
            products.append((A, B, mask, kw["semiring"]))
        return real(A, B, mask, **kw)

    with mock.patch.object(bc_mod, "masked_spgemm", capture):
        bc_mod.betweenness_centrality(g, sources, algorithm="msa")
    return products


def _wide_compl_product(log_n=WIDE_LOG_N, degree=WIDE_DEGREE,
                       batch=WIDE_BATCH):
    """BC's first forward product ``¬F ⊙ (F·A)`` for ``batch`` sources on
    an undirected uniform random graph of ``2**log_n`` vertices. ``F`` is
    one-hot at the sources, so each row touches about ``degree`` columns
    spread over the whole width: few columns over many bitset words."""
    n = 1 << log_n
    g = erdos_renyi(n, degree / 2, rng=log_n, symmetrize=True)
    sources = np.sort(np.random.default_rng(log_n).choice(
        n, batch, replace=False)).astype(np.int64)
    F = CSRMatrix(np.arange(batch + 1, dtype=np.int64), sources,
                  np.ones(batch), (batch, n))
    return [(F, g, Mask.from_matrix(F, complemented=True), PLUS_FIRST)]


def bench_accumulators(scale=CASE_SCALE, edge=CASE_EDGE, bc_scale=BC_SCALE,
                       wide_log_n=WIDE_LOG_N, wide_batch=WIDE_BATCH,
                       *, repeats=ACC_REPEATS):
    """Each compiled MSA loop on the products it serves, through the stitch
    face over every row; returns one row per (loop, case)."""
    L, mask = _workload(scale, edge)
    bc_case = f"bc-rmat-s{bc_scale}-e{BC_EDGE}-b{BC_BATCH}"
    bc_fwd = _bc_products(bc_scale)
    loops = [("msa_plain", f"tc-rmat-s{scale}-e{edge}",
              [(L, L, mask, PLUS_PAIR)]),
             ("msa_plain", f"{bc_case}-bwd",
              _bc_products(bc_scale, complemented=False)),
             ("msa_plain", f"tc-rmat-s{scale}-e{edge}-min-times",
              [(L, L, mask, MIN_TIMES)]),
             ("msa_compl", f"{bc_case}-fwd",
              [(A, B, m.to_csr(), sr) for A, B, m, sr in bc_fwd]),
             ("msa_compl", f"{bc_case}-fwd-bitmap", bc_fwd),
             ("msa_compl",
              f"er-n{wide_log_n}-d{WIDE_DEGREE}-b{wide_batch}-fwd1",
              _wide_compl_product(wide_log_n, batch=wide_batch))]
    kernel_rev = git_rev(Path(repro.__file__).resolve().parent.parent.parent)
    rows = []
    for loop, case, products in loops:
        calls = [(A, B, m, sr, np.arange(A.nrows, dtype=np.int64))
                 for A, B, m, sr in products]
        lat, _ = _time(lambda: [msa_numeric_rows(*c) for c in calls],
                       [fused_msa_rows(A, B, m, sr, rows)
                        for A, B, m, sr, rows in calls], repeats=repeats)
        rows.append(_row(case, "msa-native", lat, mode="accumulator",
                         loop=loop, backend=native_backend_name(),
                         kernel_rev=kernel_rev, products=len(calls),
                         flops=int(sum(spgemm_flops(A, B)
                                       for A, B, _, _ in products)),
                         bit_identical=True, informational=True))
    return rows


def record_accumulators() -> None:
    """Run :func:`bench_accumulators` and append it to ``BENCH_kernels.json``
    as a ``native_accumulators`` run."""
    rows = bench_accumulators()
    emit("\n[Native] compiled MSA loops alone (stitch face, every row; "
         f"kernel source {rows[0]['kernel_rev']})")
    emit(render_table(
        ["loop", "case", "products", "flops", "mean (ms)", "p50 (ms)"],
        [[r["loop"], r["case"], r["products"], r["flops"], r["mean_ms"],
          r["p50_ms"]] for r in rows]))
    append_trajectory_run(ARTIFACT_KERNELS, "native_accumulators", rows)


def bench_threads(scale=CASE_SCALE, edge=CASE_EDGE, *, repeats=REPEATS):
    """Threads over the compiled kernel vs in-process (informational)."""
    L, mask = _workload(scale, edge)
    case = _case_name(scale, edge)
    alg = native_variant("msa")
    plan = build_plan(L, L, mask, algorithm=alg, phases=2)

    inproc_lat, baseline = _time(
        lambda: parallel_masked_spgemm(L, L, mask, algorithm=alg,
                                       semiring=PLUS_PAIR, phases=2,
                                       plan=plan),
        None, repeats=repeats)
    rows = [_row(case, alg, inproc_lat, mode="inprocess", workers=0)]

    for n in THREAD_WORKERS:
        with ThreadExecutor(n) as ex:
            lat, _ = _time(
                lambda: parallel_masked_spgemm(L, L, mask, algorithm=alg,
                                               semiring=PLUS_PAIR, phases=2,
                                               plan=plan, executor=ex),
                baseline, repeats=repeats)
        rows.append(_row(case, alg, lat, mode="thread", workers=n))

    face = {"case": case, "mode": "thread-face", "algorithm": alg,
            "backend": native_backend_name(), "cpu_count": os.cpu_count(),
            "bit_identical": True, "informational": True}
    return rows, face


def main() -> None:
    if not native_available():
        emit("compiled tier unavailable (needs cffi + a C compiler) on "
             "this machine; native bench skipped")
        raise SystemExit(0)
    seconds = warmup()
    emit(f"[Native] compiled kernel tier ({native_backend_name()} backend, "
         f"warmed in {seconds:.2f}s) vs fused NumPy kernels")
    emit(f"workload: repeated-mask TC product on rmat(s={CASE_SCALE}, "
         f"e={CASE_EDGE}), PLUS_PAIR, 2P, warm plans\n")

    rows, gates = bench_native()
    table = [[r["case"], r["algorithm"], r["repeats"], r["mean_ms"],
              r["p50_ms"], r["p95_ms"]] for r in rows]
    emit(render_table(["case", "algorithm", "reps", "mean (ms)",
                       "p50 (ms)", "p95 (ms)"], table))
    emit(f"\n[Native] gate: native vs fused (≥{GATE_MIN_SPEEDUP}x each)")
    emit(render_table(
        ["algorithm", "fused (ms)", "native (ms)", "speedup",
         f"gate ≥{GATE_MIN_SPEEDUP}x"],
        [[g["algorithm"], g["fused_mean_ms"], g["native_mean_ms"],
          g["speedup_vs_fused"], "PASS" if g["gate_pass"] else "FAIL"]
         for g in gates]))

    srows, sgates = bench_symbolic()
    emit(f"\n[Native] symbolic pass: fused vs compiled, and cold 2P vs 1P "
         f"(gate: cold 2P ≤ {GATE_MAX_COLD_2P_RATIO}x 1P)")
    emit(render_table(
        ["algorithm", "fused sym (ms)", "native sym (ms)", "1P (ms)",
         "cold 2P (ms)", "2P/1P", f"gate ≤{GATE_MAX_COLD_2P_RATIO}x"],
        [[g["algorithm"], g["fused_symbolic_mean_ms"],
          g["native_symbolic_mean_ms"], g["one_phase_mean_ms"],
          g["cold_2p_mean_ms"], g["cold_2p_over_1p"],
          "PASS" if g["gate_pass"] else "FAIL"] for g in sgates]))

    record_accumulators()

    trows, face = bench_threads()
    emit(f"\n[Native] threads over the compiled kernel vs inprocess "
         f"(informational — "
         f"cpu_count={face['cpu_count']}, backend={face['backend']})")
    emit(render_table(
        ["case", "mode", "workers", "algorithm", "mean (ms)", "p50 (ms)"],
        [[r["case"], r["mode"], r["workers"], r["algorithm"], r["mean_ms"],
          r["p50_ms"]] for r in trows]))

    prev = latest_trajectory_run(ARTIFACT_KERNELS, bench="native")
    append_trajectory_run(ARTIFACT_KERNELS, "native", rows + gates)
    append_trajectory_run(ARTIFACT_KERNELS, "native_symbolic",
                          srows + sgates)
    append_trajectory_run(ARTIFACT_SERVICE, "thread_scaling",
                          trows + [face])
    emit(f"\nappended runs to {ARTIFACT_KERNELS.name} "
         f"({len(rows) + len(gates)} + {len(srows) + len(sgates)} results) "
         f"and {ARTIFACT_SERVICE.name} "
         f"({len(trows) + 1} results)")
    if prev is not None:
        drift = {r["algorithm"]: r["speedup_vs_fused"]
                 for r in prev["results"] if r.get("mode") == "native-gate"}
        for g in gates:
            if g["algorithm"] in drift:
                emit(f"  native-speedup drift [{g['algorithm']}]: "
                     f"{drift[g['algorithm']]:.2f}x → "
                     f"{g['speedup_vs_fused']:.2f}x")
    passed = all(g["gate_pass"] for g in gates + sgates)
    if passed:
        emit("acceptance gate: " + ", ".join(
            f"{g['algorithm']} {g['speedup_vs_fused']:.2f}x"
            for g in gates) + f" over fused (≥{GATE_MIN_SPEEDUP}x each); "
            "cold 2P " + ", ".join(
                f"{g['algorithm']} {g['cold_2p_over_1p']:.2f}x"
                for g in sgates) + f" of 1P (≤{GATE_MAX_COLD_2P_RATIO}x "
            "each); bit-identical throughout → PASS")
    else:
        emit("acceptance gate: FAIL")
        raise SystemExit(1)


# ----------------------------------------------------------------------- #
# pytest-benchmark face (`pytest benchmarks/ --benchmark-only -k native`)
# ----------------------------------------------------------------------- #
def test_native_warm_product(benchmark):
    """CI smoke: the compiled tier on a small grid stays bit-identical to
    fused. Skips cleanly on runners without a compiled backend."""
    import pytest

    if not native_available():
        pytest.skip("no compiled backend on this runner")
    L, mask = _workload(scale=8, edge=4)
    plan = build_plan(L, L, mask, algorithm="msa-native", phases=2)
    want = masked_spgemm(L, L, mask, algorithm="msa", semiring=PLUS_PAIR,
                         phases=2)
    got = benchmark(lambda: masked_spgemm(L, L, mask,
                                          algorithm="msa-native",
                                          semiring=PLUS_PAIR, phases=2,
                                          plan=plan))
    assert got.same_pattern(want) and np.array_equal(got.data, want.data)


def test_native_symbolic_cold_2p(benchmark):
    """CI smoke: the compiled symbolic pass sizes rows exactly like the
    fused one, and a cold two-phase product through it stays bit-identical
    to one-phase, for both native keys."""
    import pytest

    if not native_available():
        pytest.skip("no compiled backend on this runner")
    L, mask = _workload(scale=8, edge=4)
    all_rows = np.arange(L.nrows, dtype=np.int64)
    for fused_key, native_key in PAIRS:
        want = get_spec(fused_key).symbolic(L, L, mask, all_rows)
        got = get_spec(native_key).symbolic(L, L, mask, all_rows)
        assert _identical(got, want)
    one = masked_spgemm(L, L, mask, algorithm="msa-native",
                        semiring=PLUS_PAIR, phases=1)
    cold = benchmark(lambda: masked_spgemm(L, L, mask,
                                           algorithm="msa-native",
                                           semiring=PLUS_PAIR, phases=2))
    assert _identical(cold, one)


def test_native_accumulators(benchmark):
    """CI smoke: both compiled MSA loops (plain TC product under PLUS_PAIR
    and an off-table min/times, plain BC backward products, complemented
    BC forward products with CSR and bitmap masks, a wide complemented
    product) on small graphs, bit-identical to fused msa on every
    repeat."""
    import pytest

    if not native_available():
        pytest.skip("no compiled backend on this runner")
    rows = benchmark.pedantic(
        lambda: bench_accumulators(scale=8, edge=4, bc_scale=7,
                                   wide_log_n=12, wide_batch=64, repeats=2),
        rounds=1, iterations=1)
    assert [r["loop"] for r in rows] == ["msa_plain"] * 3 + \
        ["msa_compl"] * 3
    assert all(r["bit_identical"] and r["products"] > 0 for r in rows)


if __name__ == "__main__":
    main()
