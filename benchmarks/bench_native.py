"""Compiled (native) kernel tier vs the fused NumPy kernels.

PR 9 adds a compiled implementation of the numeric pass behind the same
``numeric_rows``/``numeric_rows_into`` protocol: ``msa-native`` and
``hash-native`` resolve through a backend ladder (numba JIT where
installed, cffi + the system C compiler otherwise) and fall back to their
fused bases bit-identically when neither exists. The fused kernels pay
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

``main()`` appends one ``native`` run to ``BENCH_kernels.json`` and one
``thread_scaling`` run to ``BENCH_service.json``:

* **native** (gated): per-kernel fused/native mean latencies; acceptance
  gate (ISSUE 9) is native ≥ **2.0×** over fused for msa and hash both;
* **thread_scaling** (informational): the compiled kernel on a
  :class:`~repro.parallel.executor.ThreadExecutor` at 1/2/4 workers vs
  serial in-process execution. The machine may expose few CPUs, so the
  face records ``cpu_count`` and is deliberately not a scaling gate; it
  proves bit-identity and measures whatever parallelism the machine
  actually offers.

Skips cleanly (exit 0) when no compiled backend is available.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, latest_trajectory_run, tc_workload
from repro.bench import render_table
from repro.bench.metrics import latency_percentiles
from repro.core import build_plan, masked_spgemm
from repro.core.registry import native_variant
from repro.core.reference import reference_masked_spgemm
from repro.graphs import rmat
from repro.native import native_available, native_backend_name, warmup
from repro.parallel.executor import ThreadExecutor
from repro.parallel.runner import parallel_masked_spgemm
from repro.semiring import PLUS_PAIR

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_KERNELS = ROOT / "BENCH_kernels.json"
ARTIFACT_SERVICE = ROOT / "BENCH_service.json"

#: acceptance gate (ISSUE 9): compiled tier vs its fused base, per kernel
GATE_MIN_SPEEDUP = 2.0

CASE_SCALE, CASE_EDGE = 13, 8
PAIRS = [("msa", "msa-native"), ("hash", "hash-native")]
REPEATS = 5
WARMUP = 2
THREAD_WORKERS = (1, 2, 4)


def _case_name(scale=CASE_SCALE, edge=CASE_EDGE):
    return f"tc-rmat-s{scale}-e{edge}-2p"


def _workload(scale=CASE_SCALE, edge=CASE_EDGE):
    return tc_workload(rmat(scale, edge, rng=7000 + scale))


def _time(fn, baseline, *, repeats=REPEATS, warmup=WARMUP):
    """Warm timings; every repeat is checked bit-identical first."""
    lat = []
    out = None
    for i in range(warmup + repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if baseline is not None:
            assert out.same_pattern(baseline) and \
                np.array_equal(out.data, baseline.data), "NOT bit-identical"
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
        emit("no compiled backend (numba or cffi + C compiler) on this "
             "machine; native bench skipped")
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
    append_trajectory_run(ARTIFACT_SERVICE, "thread_scaling",
                          trows + [face])
    emit(f"\nappended run to {ARTIFACT_KERNELS.name} "
         f"({len(rows) + len(gates)} results) and {ARTIFACT_SERVICE.name} "
         f"({len(trows) + 1} results)")
    if prev is not None:
        drift = {r["algorithm"]: r["speedup_vs_fused"]
                 for r in prev["results"] if r.get("mode") == "native-gate"}
        for g in gates:
            if g["algorithm"] in drift:
                emit(f"  native-speedup drift [{g['algorithm']}]: "
                     f"{drift[g['algorithm']]:.2f}x → "
                     f"{g['speedup_vs_fused']:.2f}x")
    if all(g["gate_pass"] for g in gates):
        emit("acceptance gate: " + ", ".join(
            f"{g['algorithm']} {g['speedup_vs_fused']:.2f}x"
            for g in gates) + f" over fused (≥{GATE_MIN_SPEEDUP}x each), "
            "bit-identical throughout → PASS")
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


if __name__ == "__main__":
    main()
