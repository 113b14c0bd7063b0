"""Incremental k-truss serving via edge deltas vs full re-plan per iteration.

k-truss is the paper's streaming-adjacent workload: "Masked SpGEMM in an
iterative manner where the graph keeps changing due to pruning of some
edges" (§8.3). Before PR 8 every iteration paid the full pattern-only
pipeline again — auto-select, the whole symbolic pass, a cold numeric pass
— because each pruning produces a brand-new fingerprint. The delta
subsystem turns the pruning into what it actually is, an edge-delete batch:

* ``full-replan`` — :func:`repro.algorithms.ktruss.ktruss` (2P), each
  iteration planned from scratch on its new pattern;
* ``delta-serve`` — :func:`repro.algorithms.ktruss.ktruss_delta`: the
  support matrix registered once, each iteration's pruned edges applied as
  a delete-only :class:`~repro.delta.DeltaBatch`. The engine makes one
  pass over the dirty rows (each pruned edge's rows plus its
  mask-admitted common-neighbor set): it *patches* the cached product by
  re-running the numeric kernel over those rows, and splices the patch's
  row sizes into the cached plan, so no symbolic pass runs and iteration
  ``i+1`` serves from the result tier.

Both modes use ``algorithm="auto"`` (the ``ktruss``/``ktruss_delta``
default), so with a compiled backend both run ``msa-native`` and the
speedup isolates what the delta path saves: per-iteration auto-select,
the full symbolic pass and the full numeric pass.

Both runs are checked **bit-identical** (subgraph and iteration count)
before any timing is recorded. ``main()`` appends one ``delta`` run to
``BENCH_service.json``. Gate (ISSUE 8): delta-served k-truss ≥ **1.3×**
over full re-plan on **tc-rmat-s13-e8**, bit-identical.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, latest_trajectory_run
from repro.algorithms.ktruss import ktruss, ktruss_delta
from repro.bench import render_table
from repro.graphs import rmat
from repro.obs import parse_exposition
from repro.service import Engine

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: acceptance gate (ISSUE 8): delta-served vs full-re-plan k-truss
GATE_MIN_SPEEDUP = 1.3

CASE_SCALE, CASE_EDGE = 13, 8
K = 5
REPEATS = 3


def _case_name(scale=CASE_SCALE, edge=CASE_EDGE):
    return f"ktruss{K}-rmat-s{scale}-e{edge}-2p"


def _identical(a, b) -> bool:
    return bool(a.same_pattern(b) and np.array_equal(a.data, b.data))


def bench_case(scale=CASE_SCALE, edge=CASE_EDGE, *, k=K, repeats=REPEATS):
    """Both modes on one graph; returns (mode rows, gate row)."""
    g = rmat(scale, edge, rng=7000 + scale)
    case = _case_name(scale, edge)

    full_lat, delta_lat = [], []
    full = inc = None
    spliced = patched = 0
    identical = True
    for _ in range(repeats):
        t0 = time.perf_counter()
        full = ktruss(g, k, phases=2)
        full_lat.append(time.perf_counter() - t0)

        engine = Engine(result_cache_bytes=512 << 20)
        t0 = time.perf_counter()
        inc = ktruss_delta(g, k, engine=engine)
        delta_lat.append(time.perf_counter() - t0)

        identical &= _identical(inc.subgraph, full.subgraph)
        identical &= inc.iterations == full.iterations
        fam = parse_exposition(engine.metrics.render())
        spliced = int(fam.get("repro_delta_plans_total", {}).get(
            (("outcome", "spliced"),), 0))
        patched = int(sum(fam.get(
            "repro_delta_results_patched_total", {}).values()))

    def row(mode, lat, res):
        return {"case": case, "mode": mode, "k": k,
                "iterations": res.iterations, "repeats": len(lat),
                "mean_s": float(np.mean(lat)), "min_s": float(np.min(lat)),
                "total_flops": res.total_flops,
                "warm_iterations": sum(
                    1 for h in res.plan_hits_per_iteration if h)}

    rows = [row("full-replan", full_lat, full),
            row("delta-serve", delta_lat, inc)]
    speedup = float(np.mean(full_lat) / np.mean(delta_lat))
    gate = {"case": case, "mode": "delta-gate", "k": k,
            "repeats": repeats, "iterations": inc.iterations,
            "full_mean_s": float(np.mean(full_lat)),
            "delta_mean_s": float(np.mean(delta_lat)),
            "speedup_vs_full": speedup, "bit_identical": bool(identical),
            "plans_spliced": spliced, "results_patched": patched,
            "gate_min": GATE_MIN_SPEEDUP,
            "gate_pass": bool(speedup >= GATE_MIN_SPEEDUP and identical)}
    return rows, gate


def main() -> None:
    emit(f"[Delta] k-truss (k={K}) served via edge deltas vs full re-plan "
         f"per iteration")
    emit("full-replan = cold symbolic + numeric every iteration; "
         "delta-serve = delete-only DeltaBatch per pruning, spliced plans "
         "+ patched results\n")
    rows, gate = bench_case()
    table = [[r["case"], r["mode"], r["iterations"], r["warm_iterations"],
              r["repeats"], r["mean_s"], r["min_s"]] for r in rows]
    emit(render_table(["case", "mode", "iters", "warm iters", "reps",
                       "mean (s)", "min (s)"], table))
    emit(f"\n[Delta] gate: delta-serve vs full-replan on {gate['case']}")
    emit(render_table(
        ["case", "full (s)", "delta (s)", "speedup", "spliced", "patched",
         "identical", f"gate ≥{GATE_MIN_SPEEDUP}x"],
        [[gate["case"], gate["full_mean_s"], gate["delta_mean_s"],
          gate["speedup_vs_full"], gate["plans_spliced"],
          gate["results_patched"],
          "yes" if gate["bit_identical"] else "NO",
          "PASS" if gate["gate_pass"] else "FAIL"]]))

    prev = latest_trajectory_run(ARTIFACT, bench="delta")
    append_trajectory_run(ARTIFACT, "delta", rows + [gate])
    emit(f"\nappended run to {ARTIFACT.name} ({len(rows) + 1} results)")
    if prev is not None:
        drift = {r["case"]: r["speedup_vs_full"]
                 for r in prev["results"] if r.get("mode") == "delta-gate"}
        if gate["case"] in drift:
            emit(f"  delta-speedup drift [{gate['case']}]: "
                 f"{drift[gate['case']]:.2f}x → "
                 f"{gate['speedup_vs_full']:.2f}x")
    if gate["gate_pass"]:
        emit(f"acceptance gate: delta-served k-truss "
             f"{gate['speedup_vs_full']:.2f}x over full re-plan "
             f"(≥{GATE_MIN_SPEEDUP}x), bit-identical → PASS")
    else:
        emit("acceptance gate: FAIL")
        raise SystemExit(1)


# ----------------------------------------------------------------------- #
# pytest-benchmark face (`pytest benchmarks/ --benchmark-only -k delta`)
# ----------------------------------------------------------------------- #
def test_delta_ktruss_smoke(benchmark):
    """CI smoke: delta-served k-truss on a small grid stays bit-identical
    to the full re-plan run and serves warm past the first iteration."""
    g = rmat(8, 4, rng=7008)
    full = ktruss(g, K, phases=2)

    def run():
        return ktruss_delta(g, K, engine=Engine(result_cache_bytes=1 << 26))

    inc = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert _identical(inc.subgraph, full.subgraph)
    assert inc.iterations == full.iterations
    if inc.iterations > 1:
        assert all(h >= 1 for h in inc.plan_hits_per_iteration[1:])


if __name__ == "__main__":
    main()
