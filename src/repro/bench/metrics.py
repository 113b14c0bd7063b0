"""Performance metrics matching the paper's figures.

* ``spgemm_flops`` — the standard SpGEMM convention: 2 × Σ_k nnz(A_*k)·nnz(B_k*)
  (one multiply + one add per partial product). The paper's GFLOPS figures
  (10, 14) divide this by wall time regardless of algorithm, so a masked
  kernel that *skips* flops shows a lower rate on the same plot — exactly
  why those figures are rate plots, not time plots.
* ``masked_flops`` — the products that actually land in the mask; useful for
  quantifying how much work masking can save (the Fig. 1 story).
* ``mteps`` — Millions of Traversed Edges Per Second, the Graph500/HPCS
  metric [4] the paper uses for Betweenness Centrality:
  ``batch_size × num_edges / time``.
"""

from __future__ import annotations

import numpy as np

from ..core.expand import expand_row_pattern, total_flops
from ..mask import Mask
from ..sparse.csr import CSRMatrix


def spgemm_flops(A: CSRMatrix, B: CSRMatrix) -> int:
    """2 × (number of partial products of A·B)."""
    return 2 * total_flops(A, B)


def masked_flops(A: CSRMatrix, B: CSRMatrix, mask: Mask) -> int:
    """2 × (number of partial products whose column survives the mask).

    For complemented masks, counts products *outside* the stored pattern.
    """
    count = 0
    for i in range(A.nrows):
        bj = expand_row_pattern(A, B, i)
        if bj.size == 0:
            continue
        m_cols = mask.indices[mask.indptr[i]: mask.indptr[i + 1]]
        if m_cols.size == 0:
            member = np.zeros(bj.size, dtype=bool)
        else:
            pos = np.searchsorted(m_cols, bj)
            pos[pos == m_cols.size] = 0
            member = m_cols[pos] == bj
        count += int((~member if mask.complemented else member).sum())
    return 2 * count


def gflops(flops: float, seconds: float) -> float:
    """Giga floating-point operations per second."""
    if seconds <= 0:
        return float("inf")
    return flops / seconds / 1e9


def mteps(batch_size: int, num_edges: int, seconds: float) -> float:
    """Millions of traversed edges per second (paper §8.4 metric)."""
    if seconds <= 0:
        return float("inf")
    return batch_size * num_edges / seconds / 1e6


def compression_factor(A: CSRMatrix, B: CSRMatrix, C: CSRMatrix) -> float:
    """flops(AB) / nnz(C): how much merging the accumulator performs — the
    quantity plain-SpGEMM lore uses to justify two-phase execution."""
    nnz = max(C.nnz, 1)
    return total_flops(A, B) / nnz


# ---------------------------------------------------------------------- #
# service-layer metrics (repro.service request telemetry)
# ---------------------------------------------------------------------- #
def hit_rate(hits: int, misses: int) -> float:
    """Cache hit fraction; 0.0 for an untouched cache."""
    total = hits + misses
    return hits / total if total else 0.0


def latency_percentiles(latencies, *, percentiles=(50, 95, 99)) -> dict[int, float]:
    """Request-latency percentiles in seconds (the serving-side view of the
    paper's wall-clock numbers). Empty input → empty dict."""
    arr = np.asarray(list(latencies), dtype=np.float64)
    if arr.size == 0:
        return {}
    return {int(p): float(np.percentile(arr, p)) for p in percentiles}


def latency_summary(latencies) -> str:
    """One-line latency summary (count / mean / p50 / p95), empty string for
    no samples. Used by the ``repro serve`` report."""
    arr = np.asarray(list(latencies), dtype=np.float64)
    if arr.size == 0:
        return ""
    pct = latency_percentiles(arr, percentiles=(50, 95))
    return (f"n={arr.size}  mean={arr.mean() * 1e3:.2f} ms  "
            f"p50={pct[50] * 1e3:.2f} ms  p95={pct[95] * 1e3:.2f} ms")
