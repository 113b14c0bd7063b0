#!/usr/bin/env python
"""Routing check: does ``algorithm="auto"`` pick the fastest kernel?

Two sets of cells, both fixed here before the fused routing rule was fitted:

* **fit** — the cells the rule was chosen on: the paper's Fig. 7 grid
  (Erdős-Rényi inputs and mask at n = 2^10, input degrees 1–64, mask
  degrees 1–256) plus a wide-output column (B with 2^16 columns, A with
  64 rows or all 2^10), each with plain and complemented masks;
* **held-out** — R-MAT graph products the rule was only checked on:
  k-truss support ``E ⊙ (E·E)`` (``ktruss-support-rmat-s9-e8``/``-s10-e8``
  are the auto-routing cases of ``benchmarks/bench_chunk_fusion.py``),
  triangle counting ``L ⊙ (L·L)``, open wedges ``¬E ⊙ (E·E)`` and a
  BC-style frontier product (64 rows of E times E under the complement
  of their own pattern).

For each cell it times every kernel :func:`repro.core.registry.auto_select`
can return or could return before the fused rule was re-fitted — the
fused ``inner``/``heap``/``esc``/``msa``/``hash``/``msa-loop`` and, when
the compiled tier is available, ``msa-native`` — as one-phase
``masked_spgemm`` calls, and prints auto's pick, the winner and the pick's
regret (pick time over winner time). A cell's kernels are timed
interleaved: one warm-up round, then :data:`ROUNDS` rounds that call each
kernel once, and each kernel's time is its median. A second core that
comes and goes then slows every kernel of a round alike, instead of
whichever kernel happened to be timed while it was away.
Without the compiled tier ``msa-native`` would only re-time fused ``msa``
under another name, so it is left out.

The two BC-frontier cells are forward products of batched BC, whose
direction ``auto_select`` does not choose: on the compiled tier,
:func:`repro.algorithms.betweenness.betweenness_centrality` picks push
(``msa-native``) or pull (``msa-pull``) per product by exact work
(:func:`~repro.algorithms.betweenness.forward_work`). Under each of those
rows the check also times both directions on the mask's bitmap form,
the form BC hands the kernels, and prints BC's pick beside them with its
regret. That line is informational: the summed regrets below count
``auto_select``'s picks over the same candidates as before.

A set's summed regret is the summed time of auto's picks over the summed
time of the winners (1.0 means auto always picked the winner). The check
exits non-zero when either set's exceeds :data:`MAX_SUMMED_REGRET`: a
routing rule that keeps choosing a loser should fail here before it costs
a workload. ``REPRO_NATIVE=off`` checks the fused rule alone.

Run from anywhere: ``PYTHONPATH=src python tools/check_routing.py``.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

N = 1 << 10
INPUT_DEGREES = (1, 2, 4, 8, 16, 32, 64)
MASK_DEGREES = (1, 4, 16, 64, 256)
#: the wide-output column: B's width, A's row counts, degrees
WIDE_NCOLS = 1 << 16
WIDE_ROWS = (64, N)
WIDE_INPUT_DEGREES = (4, 32)
WIDE_MASK_DEGREES = (16, 256)
#: every key auto_select returns or returned before the re-fit
ROUTABLE = ("inner", "heap", "esc", "msa", "hash", "msa-loop", "msa-native")
MAX_SUMMED_REGRET = 1.25
#: timed rounds per cell, after one warm-up round
ROUNDS = 5


def fit_cells():
    """``(label, A, B, mask, semiring)`` for the fit set, built lazily."""
    from repro.graphs import erdos_renyi
    from repro.mask import Mask
    from repro.semiring import PLUS_TIMES
    from repro.sparse import csr_random

    for complemented in (False, True):
        pol = "compl" if complemented else "plain"
        for d_in in INPUT_DEGREES:
            A = erdos_renyi(N, d_in, rng=3 * d_in + 1)
            B = erdos_renyi(N, d_in, rng=3 * d_in + 2)
            for d_m in MASK_DEGREES:
                mask = Mask.from_matrix(erdos_renyi(N, d_m, rng=3 * d_m + 3),
                                        complemented=complemented)
                yield (f"er {pol} d_in={d_in} d_m={d_m}", A, B, mask,
                       PLUS_TIMES)
        for rows in WIDE_ROWS:
            for d_in in WIDE_INPUT_DEGREES:
                A = csr_random(rows, N, nnz=rows * d_in, rng=5 * d_in + 1)
                B = csr_random(N, WIDE_NCOLS, nnz=N * d_in, rng=5 * d_in + 2)
                for d_m in WIDE_MASK_DEGREES:
                    M = csr_random(rows, WIDE_NCOLS, nnz=rows * d_m,
                                   rng=5 * d_m + 3)
                    yield (f"wide {pol} rows={rows} d_in={d_in} d_m={d_m}",
                           A, B, Mask.from_matrix(M, complemented=complemented),
                           PLUS_TIMES)


def held_out_cells():
    """``(label, A, B, mask, semiring)`` for the held-out R-MAT set."""
    from repro.graphs import rmat
    from repro.graphs.prep import to_undirected_simple, triangle_prep
    from repro.mask import Mask
    from repro.semiring import PLUS_PAIR
    from repro.sparse import CSRMatrix

    for s in (9, 10):
        E = to_undirected_simple(rmat(s, 8, rng=7100 + s))
        yield (f"ktruss-support-rmat-s{s}-e8", E, E, Mask.from_matrix(E),
               PLUS_PAIR)
        yield (f"wedges-rmat-s{s}-e8", E, E,
               Mask.from_matrix(E, complemented=True), PLUS_PAIR)
    for s in (9, 10, 11):
        L = triangle_prep(rmat(s, 8, rng=7000 + s))
        yield f"tc-rmat-s{s}-e8", L, L, Mask.from_matrix(L), PLUS_PAIR
    for s in (10, 11):
        E = to_undirected_simple(rmat(s, 8, rng=7100 + s))
        end = int(E.indptr[64])
        F = CSRMatrix(E.indptr[:65], E.indices[:end], E.data[:end],
                      (64, E.ncols))
        yield (f"bc-frontier-rmat-s{s}-e8", F, E,
               Mask.from_matrix(F, complemented=True), PLUS_PAIR)


def time_cell(A, B, mask, semiring, keys=None) -> dict[str, float]:
    """Median seconds over :data:`ROUNDS` interleaved rounds of ``keys``,
    by default every routable kernel that supports the mask (``inner`` has
    no complemented form) and runs as itself (``msa-native`` only when the
    compiled tier is available)."""
    from repro import masked_spgemm
    from repro.core.registry import get_spec
    from repro.native import native_available

    if keys is None:
        keys = [k for k in ROUTABLE
                if (get_spec(k).supports_complement or not mask.complemented)
                and (k != "msa-native" or native_available())]
    samples = {k: [] for k in keys}
    for r in range(ROUNDS + 1):
        for key in keys:
            t0 = time.perf_counter()
            masked_spgemm(A, B, mask, algorithm=key, semiring=semiring)
            if r:  # round 0 warms up
                samples[key].append(time.perf_counter() - t0)
    return {k: statistics.median(v) for k, v in samples.items()}


def bc_direction_line(F, E, mask, semiring) -> str:
    """BC's exact-work direction for the forward product ``mask ⊙ (F·E)``
    (E symmetric, so it is its own transpose) and both directions' times
    on the bitmap form of the mask."""
    import numpy as np

    from repro.algorithms.betweenness import forward_work
    from repro.mask import Mask
    from repro.native.kernels import remember_transpose

    visited = np.zeros(mask.shape, dtype=bool)
    visited[np.repeat(np.arange(mask.nrows), mask.row_nnz()),
            mask.indices] = True
    push, pull = forward_work(F, E, E, visited)
    remember_transpose(E, E)
    times = time_cell(F, E, Mask.from_bitmap(visited, complemented=True),
                      semiring, keys=("msa-native", "msa-pull"))
    pick = "msa-pull" if pull < push else "msa-native"
    best = min(times, key=times.get)
    return (f"  bc direction (bitmap mask): push work {push}, pull work "
            f"{pull} -> pick {pick}; msa-native "
            f"{times['msa-native'] * 1e3:.3f} ms, msa-pull "
            f"{times['msa-pull'] * 1e3:.3f} ms, regret "
            f"{times[pick] / times[best]:.2f}")


def env_line() -> str:
    """Usable cores, native backend, Python and numpy versions, git rev."""
    import numpy

    from common import git_rev
    from repro import native

    return (f"# env: cores={len(os.sched_getaffinity(0))} "
            f"native={native.native_backend_name() or 'none'} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"git={git_rev(REPO)}")


def check_set(name: str, cells) -> float:
    """Print one row per cell and return the set's summed regret."""
    from repro.core.registry import auto_select
    from repro.native import native_available

    print(f"## {name}")
    print(f"{'cell':<40} {'pick':<12} {'winner':<12} {'pick_ms':>9} "
          f"{'best_ms':>9} {'regret':>7}")
    pick_total = best_total = 0.0
    for label, A, B, mask, semiring in cells:
        pick = auto_select(A, B, mask, semiring=semiring)
        times = time_cell(A, B, mask, semiring)
        best = min(times, key=times.get)
        pick_total += times[pick]
        best_total += times[best]
        print(f"{label:<40} {pick:<12} {best:<12} "
              f"{times[pick] * 1e3:>9.3f} {times[best] * 1e3:>9.3f} "
              f"{times[pick] / times[best]:>7.2f}", flush=True)
        if label.startswith("bc-frontier") and native_available():
            print(bc_direction_line(A, B, mask, semiring), flush=True)
    return pick_total / best_total


def main() -> int:
    print(env_line())
    regrets = {"fit": check_set("fit", fit_cells()),
               "held-out": check_set("held-out", held_out_cells())}
    ok = True
    for name, summed in regrets.items():
        verdict = "PASS" if summed <= MAX_SUMMED_REGRET else "FAIL"
        ok &= verdict == "PASS"
        print(f"{name} summed regret {summed:.3f} "
              f"(need <= {MAX_SUMMED_REGRET}) -> {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
