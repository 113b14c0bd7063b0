"""Delta-served k-truss against plain one-phase ``ktruss()``.

k-truss is the paper's streaming-adjacent workload: "Masked SpGEMM in an
iterative manner where the graph keeps changing due to pruning of some
edges" (§8.3). Two ways to run it:

* ``ktruss`` — :func:`repro.algorithms.ktruss.ktruss` at its defaults
  (one-phase, ``algorithm="auto"``, no engine): each iteration is a direct
  :func:`~repro.core.masked_spgemm` call on a fresh pruned matrix. This is
  the best real alternative, so it is the baseline;
* ``delta-serve`` — :func:`repro.algorithms.ktruss.ktruss_delta` at its
  defaults (the same one-phase ``auto`` product): the support matrix is
  registered once in an engine store, and each iteration's pruned edges
  are applied as a delete-only :class:`~repro.delta.DeltaBatch`, which
  swaps the store entry and invalidates the results that read the old
  content.

With a compiled backend both run ``msa-native``, so the ratio isolates
what serving through an engine and its store costs: registration, the
delta application, the per-iteration fingerprints and the engine's
per-request bookkeeping.

Both runs are checked **bit-identical** (subgraph and iteration count)
before any timing is recorded. ``main()`` appends one ``delta`` run to
``BENCH_service.json``. Gate: delta-serve mean ≤ **1.3×** the ``ktruss``
mean on **rmat-s13-e8** (k=5), bit-identical.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import append_trajectory_run, emit, latest_trajectory_run
from repro.algorithms.ktruss import ktruss, ktruss_delta
from repro.bench import render_table
from repro.graphs import rmat
from repro.service import Engine

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: gate: delta-serve mean over the one-phase ktruss() mean
GATE_MAX_RATIO = 1.3

CASE_SCALE, CASE_EDGE = 13, 8
K = 5
REPEATS = 3


def _case_name(scale=CASE_SCALE, edge=CASE_EDGE):
    return f"ktruss{K}-rmat-s{scale}-e{edge}-1p"


def _identical(a, b) -> bool:
    return bool(a.same_pattern(b) and np.array_equal(a.data, b.data))


def bench_case(scale=CASE_SCALE, edge=CASE_EDGE, *, k=K, repeats=REPEATS):
    """Both modes on one graph; returns (mode rows, gate row)."""
    g = rmat(scale, edge, rng=7000 + scale)
    case = _case_name(scale, edge)

    full_lat, delta_lat = [], []
    full = inc = None
    identical = True
    for _ in range(repeats):
        t0 = time.perf_counter()
        full = ktruss(g, k)
        full_lat.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        inc = ktruss_delta(g, k)
        delta_lat.append(time.perf_counter() - t0)

        identical &= _identical(inc.subgraph, full.subgraph)
        identical &= inc.iterations == full.iterations

    def row(mode, lat, res):
        return {"case": case, "mode": mode, "k": k,
                "iterations": res.iterations, "repeats": len(lat),
                "mean_s": float(np.mean(lat)), "min_s": float(np.min(lat)),
                "total_flops": res.total_flops}

    rows = [row("ktruss", full_lat, full),
            row("delta-serve", delta_lat, inc)]
    ratio = float(np.mean(delta_lat) / np.mean(full_lat))
    gate = {"case": case, "mode": "delta-gate", "k": k,
            "repeats": repeats, "iterations": inc.iterations,
            "ktruss_mean_s": float(np.mean(full_lat)),
            "delta_mean_s": float(np.mean(delta_lat)),
            "delta_over_ktruss": ratio, "bit_identical": bool(identical),
            "gate_max": GATE_MAX_RATIO,
            "gate_pass": bool(ratio <= GATE_MAX_RATIO and identical)}
    return rows, gate


def main() -> None:
    emit(f"[Delta] k-truss (k={K}) served via edge deltas vs one-phase "
         f"ktruss()")
    emit("ktruss = fresh pruned matrix every iteration; delta-serve = one "
         "registration + a delete-only DeltaBatch per pruning\n")
    rows, gate = bench_case()
    table = [[r["case"], r["mode"], r["iterations"], r["repeats"],
              r["mean_s"], r["min_s"]] for r in rows]
    emit(render_table(["case", "mode", "iters", "reps", "mean (s)",
                       "min (s)"], table))
    emit(f"\n[Delta] gate: delta-serve vs ktruss on {gate['case']}")
    emit(render_table(
        ["case", "ktruss (s)", "delta (s)", "delta/ktruss", "identical",
         f"gate ≤{GATE_MAX_RATIO}x"],
        [[gate["case"], gate["ktruss_mean_s"], gate["delta_mean_s"],
          gate["delta_over_ktruss"],
          "yes" if gate["bit_identical"] else "NO",
          "PASS" if gate["gate_pass"] else "FAIL"]]))

    prev = latest_trajectory_run(ARTIFACT, bench="delta")
    append_trajectory_run(ARTIFACT, "delta", rows + [gate])
    emit(f"\nappended run to {ARTIFACT.name} ({len(rows) + 1} results)")
    if prev is not None:
        drift = {r["case"]: r["delta_over_ktruss"] for r in prev["results"]
                 if "delta_over_ktruss" in r}
        if gate["case"] in drift:
            emit(f"  delta/ktruss drift [{gate['case']}]: "
                 f"{drift[gate['case']]:.2f}x → "
                 f"{gate['delta_over_ktruss']:.2f}x")
    if gate["gate_pass"]:
        emit(f"acceptance gate: delta-served k-truss at "
             f"{gate['delta_over_ktruss']:.2f}x of ktruss() "
             f"(≤{GATE_MAX_RATIO}x), bit-identical → PASS")
    else:
        emit("acceptance gate: FAIL")
        raise SystemExit(1)


# ----------------------------------------------------------------------- #
# pytest-benchmark face (`pytest benchmarks/ --benchmark-only -k delta`)
# ----------------------------------------------------------------------- #
def test_delta_ktruss_smoke(benchmark):
    """CI smoke: delta-served k-truss on a small grid stays bit-identical
    to ktruss(), and a second solve on the same engine computes every
    iteration's product again, one request per iteration."""
    g = rmat(8, 4, rng=7008)
    full = ktruss(g, K)

    def run():
        engine = Engine()
        first = ktruss_delta(g, K, engine=engine)
        return engine, first, ktruss_delta(g, K, engine=engine)

    engine, first, again = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    for inc in (first, again):
        assert _identical(inc.subgraph, full.subgraph)
        assert inc.iterations == full.iterations
    assert engine.stats.computed == first.iterations + again.iterations


if __name__ == "__main__":
    main()
