"""Figure 11 — Triangle Counting strong scaling (thread count sweep).

Paper: R-MAT scale 20, 1-32 threads (Haswell) / 1-68 (KNL), "all algorithms
scaling well in all cases".

Reproduction: R-MAT scale 10, 1-8 workers. The default executor is the
**simulated** work/span model (DESIGN.md: deterministic strong-scaling shape
on a 2-core GIL-bound box); the reported "parallel time" is the greedy
list-schedule makespan of the measured chunk times, with speedup = serial /
makespan.
"""

from __future__ import annotations

from common import emit, rmat_tc_workloads, tc_runner
from repro.bench import render_series
from repro.core import display_name
from repro.parallel import SimulatedExecutor

WORKERS = (1, 2, 4, 8)
SCHEMES = [("msa", 1), ("hash", 1), ("mca", 1)]


def scaling_series(scale: int = 10):
    (_, L, mask, flops), = rmat_tc_workloads([scale])
    series: dict[str, list[tuple[float, float]]] = {}
    for alg, ph in SCHEMES:
        label = display_name(alg, ph)
        pts = []
        for p in WORKERS:
            ex = SimulatedExecutor(p)
            run = tc_runner(L, mask, alg, ph, executor=ex)
            run()  # warmup
            run()
            pts.append((p, ex.last_makespan_seconds))
        series[label] = pts
    return series


def main() -> None:
    emit("[Figure 11] Triangle Counting strong scaling, R-MAT scale 10 "
         "(simulated work/span)")
    emit("paper: all algorithms scale well with thread count\n")
    series = scaling_series()
    emit(render_series("TC time vs workers", "workers", "seconds", series))
    emit("")
    speedups = {}
    for label, pts in series.items():
        t1 = dict(pts)[1]
        speedups[label] = {p: round(t1 / t, 2) for p, t in pts}
    emit(f"speedup vs 1 worker: {speedups}")


# ----------------------------------------------------------------------- #
def test_tc_parallel_sim_4workers(benchmark):
    (_, L, mask, _), = rmat_tc_workloads([9])
    ex = SimulatedExecutor(4)
    benchmark.pedantic(tc_runner(L, mask, "msa", 1, executor=ex),
                       rounds=3, warmup_rounds=1)


def test_tc_serial_reference_point(benchmark):
    (_, L, mask, _), = rmat_tc_workloads([9])
    benchmark.pedantic(tc_runner(L, mask, "msa", 1), rounds=3, warmup_rounds=1)


if __name__ == "__main__":
    main()
