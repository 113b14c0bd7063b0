"""Direction-optimized BC: push and pull work and time, level by level.

``betweenness_centrality(..., algorithm="auto")`` picks the direction of
each masked product by exact work on the compiled tier (see
:mod:`repro.algorithms.betweenness`): the forward stage's
``¬visited ⊙ (Frontier · A)`` and the backward stage's
``S_{d-1} ⊙ (W · Aᵀ)`` each run ``msa-native`` (push) or ``msa-pull``.
This face checks that rule against the clock on graphs shaped like
perfbench's ``bc-batch`` workload: undirected R-MAT graphs of scale 11
and edge factor 8, 64 sources drawn from the non-isolated vertices.

For every product one ``auto`` call makes, it records the stage, the
level, both exact work counts (:func:`~repro.algorithms.betweenness.
forward_work` and :func:`~repro.algorithms.betweenness.backward_work`),
the direction BC picked, and the median time of each direction over
:data:`REPEATS` interleaved rounds. Every pulled product is checked
bit-identical to the pushed one before any time is recorded. The summary
compares, per graph and in total, pushing every product, BC's picks and
the per-product faster side; then whole BC calls, ``msa-native`` against
``auto``, with equal centrality arrays.

``main()`` prints the tables and appends one ``bc_direction`` run to
``BENCH_kernels.json``. Needs the compiled tier; without it ``msa-pull``
delegates to the push and the face has nothing to measure.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from common import append_trajectory_run, emit
from repro.bench import render_table

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

SCALE, EDGE_FACTOR, GRAPHS, BATCH = 11, 8, 8, 64
SEED = 1
#: interleaved timing rounds per product, after one warm-up round
REPEATS = 7
#: whole-BC rounds over every graph, per key
BC_ROUNDS = 5


def bc_jobs(seed: int = SEED, graphs: int = GRAPHS, scale: int = SCALE):
    """``(graph, sources)`` pairs: seeded undirected R-MAT graphs and a
    sorted batch of sources among each graph's non-isolated vertices."""
    from repro.graphs import rmat
    from repro.graphs.prep import to_undirected_simple

    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2 * graphs)]
    jobs = []
    for graph_rng, source_rng in zip(rngs[::2], rngs[1::2]):
        g = to_undirected_simple(rmat(scale, EDGE_FACTOR, rng=graph_rng))
        picks = source_rng.choice(np.flatnonzero(g.row_nnz()), BATCH,
                                  replace=False)
        jobs.append((g, np.sort(picks)))
    return jobs


def capture_products(g, sources):
    """Run one ``auto`` BC call and return its products in call order:
    ``(stage, level, A, B, mask, picked_key, push_work, pull_work)``."""
    import repro.algorithms.betweenness as bc_mod
    from repro.core import masked_spgemm

    A_g = g.pattern()
    AT_g = A_g  # bc-batch graphs are undirected
    products, level = [], {"forward": 0, "backward": 0}

    def capture(A, B, mask, **kw):
        stage = "forward" if mask.complemented else "backward"
        if stage == "forward":
            push, pull = bc_mod.forward_work(A, A_g, AT_g, mask.bitmap)
        else:
            push, pull = bc_mod.backward_work(A, mask.to_matrix(), A_g,
                                              AT_g)
        products.append((stage, level[stage], A, B, mask, kw["algorithm"],
                         push, pull))
        level[stage] += 1
        return masked_spgemm(A, B, mask, **kw)

    with mock.patch.object(bc_mod, "masked_spgemm", capture):
        bc_mod.betweenness_centrality(g, sources, algorithm="auto")
    return products


def _same(a, b) -> bool:
    return bool(a.same_pattern(b) and np.array_equal(a.data, b.data))


def time_products(products, repeats: int = REPEATS):
    """Median push and pull seconds per product, timed interleaved;
    raises when a pulled product differs from the pushed one."""
    from repro.core import masked_spgemm
    from repro.native.kernels import remember_transpose
    from repro.semiring import PLUS_FIRST

    rows = []
    for stage, lvl, A, B, mask, picked, push, pull in products:
        remember_transpose(B, B)  # symmetric, as BC seeds it
        run = {k: (lambda k=k: masked_spgemm(A, B, mask, algorithm=k,
                                             semiring=PLUS_FIRST))
               for k in ("msa-native", "msa-pull")}
        if not _same(run["msa-native"](), run["msa-pull"]()):
            raise AssertionError(f"{stage} level {lvl}: pull differs")
        samples = {k: [] for k in run}
        for r in range(repeats + 1):
            for k, fn in run.items():
                t0 = time.perf_counter()
                fn()
                if r:
                    samples[k].append(time.perf_counter() - t0)
        rows.append({"stage": stage, "level": lvl, "push_work": push,
                     "pull_work": pull,
                     "pick": "pull" if picked == "msa-pull" else "push",
                     "push_ms": 1e3 * statistics.median(samples["msa-native"]),
                     "pull_ms": 1e3 * statistics.median(samples["msa-pull"])})
    return rows


def time_bc(jobs, rounds: int = BC_ROUNDS):
    """Median ms per BC call over every job, push-only against ``auto``,
    interleaved; raises when the centrality arrays differ."""
    from repro.algorithms.betweenness import betweenness_centrality

    samples = {"msa-native": [], "auto": []}
    for g, sources in jobs:
        push = betweenness_centrality(g, sources, algorithm="msa-native")
        auto = betweenness_centrality(g, sources, algorithm="auto")
        if not np.array_equal(push.centrality, auto.centrality):
            raise AssertionError("auto BC differs from push-only BC")
    for _ in range(rounds):
        for g, sources in jobs:
            for key in samples:
                t0 = time.perf_counter()
                betweenness_centrality(g, sources, algorithm=key)
                samples[key].append(time.perf_counter() - t0)
    return {k: 1e3 * statistics.median(v) for k, v in samples.items()}


def main() -> None:
    from repro import native

    if not native.native_available():
        sys.exit("bench_bc_direction needs the compiled tier")
    jobs = bc_jobs()
    results, table = [], []
    totals = {"push": 0.0, "picked": 0.0, "best": 0.0}
    for gi, (g, sources) in enumerate(jobs):
        for row in time_products(capture_products(g, sources)):
            picked = row[f"{row['pick']}_ms"]
            best = min(row["push_ms"], row["pull_ms"])
            totals["push"] += row["push_ms"]
            totals["picked"] += picked
            totals["best"] += best
            results.append({"case": f"rmat-s{SCALE}-e{EDGE_FACTOR}-g{gi}",
                            "workload": "bc-direction", **row,
                            "bit_identical": True})
            table.append([gi, row["stage"], row["level"], row["push_work"],
                          row["pull_work"], row["pick"],
                          row["push_ms"], row["pull_ms"],
                          "ok" if picked <= best * 1.05 else "miss"])
    emit(f"\n[BC direction] rmat-s{SCALE}-e{EDGE_FACTOR}, {BATCH} sources, "
         f"{GRAPHS} graphs (seed {SEED}); per-product medians of "
         f"{REPEATS} interleaved rounds")
    emit(render_table(["graph", "stage", "level", "push work", "pull work",
                       "pick", "push ms", "pull ms", "pick vs best"],
                      table))
    emit(f"kernel ms summed over every product: push-only "
         f"{totals['push']:.2f}, BC's picks {totals['picked']:.2f}, "
         f"per-product best {totals['best']:.2f}")
    bc = time_bc(jobs)
    emit(f"whole BC call, median over {BC_ROUNDS} rounds x {GRAPHS} graphs: "
         f"msa-native {bc['msa-native']:.2f} ms, auto {bc['auto']:.2f} ms "
         f"({bc['msa-native'] / bc['auto']:.2f}x); centrality equal")
    results.append({"case": f"rmat-s{SCALE}-e{EDGE_FACTOR}",
                    "workload": "bc-direction-summary",
                    "push_only_kernel_ms": totals["push"],
                    "picked_kernel_ms": totals["picked"],
                    "best_kernel_ms": totals["best"],
                    "bc_push_only_ms": bc["msa-native"],
                    "bc_auto_ms": bc["auto"], "bit_identical": True})
    append_trajectory_run(ARTIFACT, "bc_direction", results)


def test_bc_direction_native_smoke(benchmark):
    """One small graph: every pulled product equals its push, and an
    ``auto`` call's scores equal the push-only call's."""
    import pytest

    from repro import native
    from repro.algorithms.betweenness import betweenness_centrality

    if not native.native_available():
        pytest.skip("needs the compiled tier")
    (g, sources), = bc_jobs(graphs=1, scale=8)
    time_products(capture_products(g, sources), repeats=1)
    got = benchmark(lambda: betweenness_centrality(g, sources))
    want = betweenness_centrality(g, sources, algorithm="msa-native")
    assert np.array_equal(got.centrality, want.centrality)


if __name__ == "__main__":
    main()
