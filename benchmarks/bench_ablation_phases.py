"""Ablation — one-phase vs two-phase execution (paper §6).

The paper's claim, "in stark contrast with the conventions of plain SpGEMM":
once a mask participates, computing in a single phase usually beats running
a symbolic phase first, because the mask already bounds the output size and
makes the 1P over-allocation cheap.

This ablation measures both sides of the tradeoff:

* masked TC workloads, 1P vs 2P per algorithm (1P should win);
* the same product **unmasked** (mask = full), where the upper bound is the
  flops bound and the symbolic phase can pay for itself — the regime where
  classic SpGEMM wisdom comes from.

``msa-native`` runs both passes compiled, so its rows show what
two-phase costs once the symbolic pass is no longer NumPy.
"""

from __future__ import annotations

from common import emit, tc_runner, tc_workload
from repro.bench import render_table, time_callable
from repro.core import display_name
from repro.graphs import load_graph

#: the fused kernels plus the compiled tier, whose symbolic pass is
#: compiled too — the 2P/1P ratio the serving default would be chosen by
ALGOS = ("msa", "hash", "mca", "heap", "inner", "msa-native")
GRAPHS = ("rmat-s9-e8", "er-s10-d16", "ws-s10-k4")


def main() -> None:
    emit("[Ablation: phases] 1P vs 2P on masked TC products (paper §6)")
    emit("paper: with a mask, 1P usually wins; symbolic work rarely pays\n")
    rows = []
    for gname in GRAPHS:
        L, mask = tc_workload(load_graph(gname))
        for alg in ALGOS:
            t1 = time_callable(tc_runner(L, mask, alg, 1), repeats=2, warmup=1)
            t2 = time_callable(tc_runner(L, mask, alg, 2), repeats=2, warmup=1)
            rows.append([gname, display_name(alg, 1), t1 * 1e3, t2 * 1e3,
                         t2 / t1])
    emit(render_table(
        ["graph", "scheme", "1P (ms)", "2P (ms)", "2P/1P"], rows))
    wins_1p = sum(1 for r in rows if r[4] > 1.0)
    emit(f"\n1P faster in {wins_1p}/{len(rows)} (graph, algorithm) pairs")


# ----------------------------------------------------------------------- #
def test_phases_1p(benchmark, tc_small):
    L, mask = tc_small
    benchmark.pedantic(tc_runner(L, mask, "hash", 1), rounds=3, warmup_rounds=1)


def test_phases_2p(benchmark, tc_small):
    L, mask = tc_small
    benchmark.pedantic(tc_runner(L, mask, "hash", 2), rounds=3, warmup_rounds=1)


if __name__ == "__main__":
    main()
