"""Shared workload builders and reporting glue for the per-figure benches.

Every ``bench_figXX_*.py`` module has two faces:

* **pytest-benchmark tests** (collected by ``pytest benchmarks/
  --benchmark-only``) timing a *representative subset* of the figure's grid,
  sized to keep the whole bench suite in CI budgets; and
* a ``main()`` that sweeps the figure's **full (scaled) grid** and prints the
  same rows/series the paper plots. ``python benchmarks/bench_figXX_*.py``
  regenerates the figure's data; EXPERIMENTS.md records those outputs.

Scaling note (DESIGN.md §2): paper grids run at R-MAT scales 8-20 on 32-68
cores; ours run at scales 6-12 on a laptop-class box. Crossovers are driven
by density ratios, which the scaled grids preserve.

Perf-trajectory artifacts (``BENCH_kernels.json``, ``BENCH_service.json``)
--------------------------------------------------------------------------
Benches that back acceptance gates record timings into JSON *trajectory*
files at the repo root so speedups can be tracked across commits rather than
eyeballed once (see ``docs/BENCHMARKS.md`` for the full schema reference).
Shared envelope (``repro-perf-trajectory-v1``, written by
:func:`append_trajectory_run`)::

    {
      "schema": "repro-perf-trajectory-v1",
      "bench": "chunk_fusion",            # which bench owns this artifact
      "runs": [
        {
          "timestamp": 1722200000,        # unix seconds of the run
          "env": {"cores": 8, ...},       # env_fingerprint() of the run
          "results": [ {...}, ... ]       # bench-specific result rows
        }, ...
      ]
    }

Result rows by artifact:

* ``BENCH_kernels.json`` (bench ``chunk_fusion``) — three face families,
  disambiguated by ``workload``: fused-vs-loop rows (``workload`` tc |
  ktruss-support | complement; ``scheme`` msa-loop | msa | esc;
  ``speedup_vs_loop`` vs msa-loop; runs before the per-row hash/heap
  loops were deleted also carry hash-loop | heap-loop | hash | heap),
  warm-2P direct-write rows (``workload`` warm2p-*; ``scheme``
  ``<alg>-2p-stitch``/``<alg>-2p-direct`` with ``speedup_vs_stitch``), and
  chunk-ablation rows (``workload`` chunk-ablation; ``scheme``
  nworkersx4-serial | budget-<N>MiB with ``nchunks``). All numeric rows
  carry ``seconds`` (best-of-repeats) and a bit-identity flag;
* ``BENCH_service.json`` (bench ``serve_throughput``) — one row per
  serving mode: ``case``, ``mode`` (cold | one-phase | result-hit),
  ``requests``, ``wall_seconds``, ``rps``, ``mean_ms``/``p50_ms``/
  ``p95_ms``; plus one ``mode: result-hit-gate`` row per case carrying the
  result-hit gate (``speedup_vs_one_phase``, ``bit_identical``,
  ``gate_min``, ``gate_pass``). Runs before the plan cache was retired also
  carry a ``warm-plan`` mode row and ``warm_plan_vs_one_phase`` on the gate
  row; runs before plan persistence was retired carry a
  ``mode: warm-restart`` gate row instead.

Each invocation *appends* one run, preserving history; downstream tooling
(and the ISSUE acceptance gates) read the latest run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro import Mask, PLUS_PAIR
from repro.bench import GridResult, run_grid, time_callable
from repro.core import display_name, masked_spgemm
from repro.graphs import rmat, suite_graphs
from repro.graphs.prep import triangle_prep

#: the scheme variants of Fig. 8/12 (the paper's 6 algorithms plus the
#: chunk-fused ``esc`` extension, × {1P, 2P})
OUR_SCHEMES = [(alg, ph)
               for alg in ("msa", "esc", "hash", "mca", "heap", "heapdot",
                           "inner")
               for ph in (1, 2)]

#: complement-capable schemes (Fig. 16's candidates + chunk-fused esc)
COMPLEMENT_SCHEMES = [(alg, ph) for alg in ("msa", "esc", "hash")
                      for ph in (1, 2)]

#: baseline stand-ins (see DESIGN.md substitution table)
BASELINES = ["saxpy", "saxpy-scipy", "dot"]


def scheme_name(alg: str, phases: int = 1) -> str:
    return display_name(alg, phases)


def tc_workload(g):
    """Triangle-counting masked-product workload for one graph: the paper
    times only the Masked SpGEMM (§8.2), so the workload is C = L ⊙ (L·L)."""
    L = triangle_prep(g)
    mask = Mask.from_matrix(L)
    return L, mask


def tc_runner(L, mask, alg: str, phases: int = 1, executor=None):
    return lambda: masked_spgemm(L, L, mask, algorithm=alg,
                                 semiring=PLUS_PAIR, phases=phases,
                                 executor=executor)


def tc_grid_over_suite(schemes, *, limit=None, exclude_largest=False,
                       repeats=1, include_baselines=False) -> GridResult:
    """Time the TC masked product for every suite graph × scheme."""
    cases = []
    for name, g in suite_graphs(limit=limit, exclude_largest=exclude_largest):
        L, mask = tc_workload(g)

        def make(scheme, L=L, mask=mask):
            if isinstance(scheme, tuple):
                alg, ph = scheme
                return tc_runner(L, mask, alg, ph)
            return tc_runner(L, mask, scheme, 1)

        cases.append((name, make))
    names = list(schemes) + (list(BASELINES) if include_baselines else [])
    grid = run_grid(cases, names, repeats=repeats, warmup=1)
    # re-key tuples to display names
    out = GridResult()
    for scheme, per in grid.times.items():
        label = (scheme_name(*scheme) if isinstance(scheme, tuple)
                 else scheme_name(scheme))
        for case, t in per.items():
            out.record(label, case, t)
    return out


def rmat_tc_workloads(scales, edge_factor=8, seed_base=7000):
    """(scale, L, mask, flops) tuples for the scaling figures."""
    from repro.bench import spgemm_flops

    out = []
    for s in scales:
        g = rmat(s, edge_factor, rng=seed_base + s)
        L, mask = tc_workload(g)
        out.append((s, L, mask, spgemm_flops(L, L)))
    return out


def emit(text: str) -> None:
    """Print a report block (flushed so piping to tee works cleanly)."""
    print(text)
    sys.stdout.flush()


# ----------------------------------------------------------------------- #
# perf-trajectory artifacts (see module docstring for the schema)
# ----------------------------------------------------------------------- #
TRAJECTORY_SCHEMA = "repro-perf-trajectory-v1"


def git_rev(root: Path | None = None) -> str:
    """Short HEAD revision of the checkout at ``root`` (default: this one),
    suffixed ``-dirty`` when the work tree has uncommitted changes;
    ``"unknown"`` outside a git checkout."""
    root = root or Path(__file__).resolve().parent.parent
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if rev.returncode != 0:
        return "unknown"
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def env_fingerprint() -> dict:
    """The machine and build a run was measured on, under the same keys
    ``perfbench/run.py`` prints: cores, native backend, Python and numpy
    versions, and the git revision with its dirty flag."""
    import numpy

    from repro import native

    return {"cores": os.cpu_count(),
            "native_backend": native.native_backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git": git_rev()}


def append_trajectory_run(artifact: Path, bench: str,
                          results: list[dict]) -> None:
    """Append one timestamped run, stamped with its
    :func:`env_fingerprint`, to a trajectory artifact, preserving the runs
    already recorded there. A corrupt file (or one with a foreign
    schema) starts a fresh trajectory rather than poisoning history.

    One artifact may carry runs from *several* benches (e.g.
    ``BENCH_service.json`` holds both the serve-throughput faces and the
    thread-scaling faces): each run is tagged with its ``bench``, and the
    doc-level ``bench`` field names the first owner for back-compat with
    older readers. Use ``latest_trajectory_run(..., bench=...)`` to read a
    specific bench's most recent run.
    """
    doc = {"schema": TRAJECTORY_SCHEMA, "bench": bench, "runs": []}
    if artifact.exists():
        try:
            prev = json.loads(artifact.read_text())
            if prev.get("schema") == TRAJECTORY_SCHEMA:
                doc = prev
        except (json.JSONDecodeError, OSError):
            pass
    doc["runs"].append({"timestamp": int(time.time()), "bench": bench,
                        "env": env_fingerprint(), "results": results})
    artifact.write_text(json.dumps(doc, indent=2) + "\n")


def latest_trajectory_run(artifact: Path, bench: str | None = None
                          ) -> dict | None:
    """The most recent run recorded in a trajectory artifact, or None.

    ``bench`` filters to that bench's runs (runs written before the
    multi-bench envelope carry no tag and match the doc-level owner)."""
    try:
        doc = json.loads(artifact.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    runs = doc.get("runs") or []
    if bench is not None:
        owner = doc.get("bench")
        runs = [r for r in runs if r.get("bench", owner) == bench]
    return runs[-1] if runs else None
