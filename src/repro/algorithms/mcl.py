"""Markov clustering (MCL) — the SpGEMM application family of the paper's
background (§2 cites van Dongen's MCL [36] and HipMCL [35] as SpGEMM
workloads).

MCL alternates **expansion** (matrix powers — the SpGEMM), **inflation**
(element-wise powering + column re-normalization, which sharpens flow) and
**pruning** (dropping near-zero entries to keep the iterate sparse) on a
column-stochastic flow matrix until a fixpoint; connected components of the
final support are the clusters. Not a *masked* workload, but it exercises
plain SpGEMM, element-wise ops and pruning — and gives the library the
clustering capability its SpGEMM substrate exists to serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import spgemm
from ..graphs.prep import to_undirected_simple
from ..sparse import ops
from ..sparse.csr import CSRMatrix
from ..sparse.construct import csr_eye
from ..validation import INDEX_DTYPE


@dataclass
class MCLResult:
    labels: np.ndarray                 # cluster id per vertex
    n_clusters: int
    iterations: int
    nnz_history: list[int] = field(default_factory=list)


def _column_normalize(m: CSRMatrix) -> CSRMatrix:
    """Scale columns to sum 1 (column-stochastic flow matrix)."""
    colsum = np.zeros(m.ncols, dtype=np.float64)
    np.add.at(colsum, m.indices, m.data)
    scale = np.ones_like(colsum)
    nz = colsum > 0
    scale[nz] = 1.0 / colsum[nz]
    return CSRMatrix(m.indptr.copy(), m.indices.copy(),
                     m.data * scale[m.indices], m.shape, check=False)


def _inflate(m: CSRMatrix, power: float) -> CSRMatrix:
    return _column_normalize(ops.scale_values(m, lambda v: np.power(v, power)))


def _connected_components(m: CSRMatrix) -> tuple[np.ndarray, int]:
    """Union-find over the symmetrized support of ``m``."""
    n = m.nrows
    parent = np.arange(n, dtype=INDEX_DTYPE)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = int(parent[x])
        return x

    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), m.row_nnz())
    for i, j in zip(rows, m.indices):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    roots = np.array([find(int(v)) for v in range(n)], dtype=INDEX_DTYPE)
    uniq, labels = np.unique(roots, return_inverse=True)
    return labels.astype(INDEX_DTYPE), int(uniq.size)


def markov_clustering(
    g: CSRMatrix,
    *,
    expansion: int = 2,
    inflation: float = 2.0,
    prune_threshold: float = 1e-4,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    self_loops: float = 1.0,
    engine=None,
    algorithm: str = "auto",
) -> MCLResult:
    """Cluster an undirected graph with the MCL process.

    Parameters
    ----------
    g : adjacency pattern/weights (symmetrized and de-looped internally).
    expansion : power of the flow matrix per round (≥ 2; 2 is canonical).
    inflation : element-wise exponent (> 1; higher → finer clusters).
    prune_threshold : entries below this are dropped after each round.
    self_loops : weight added on the diagonal (stabilizes convergence).
    engine : optional :class:`repro.service.Engine`. When given, every
        expansion product is served through it as an unmasked product with
        ``algorithm`` (tracing, metrics, the degrade ladder). When omitted
        the classic plain-SpGEMM path runs.
    """
    if expansion < 2:
        raise ValueError(f"expansion must be >= 2, got {expansion}")
    if inflation <= 1.0:
        raise ValueError(f"inflation must be > 1, got {inflation}")
    if engine is None and algorithm != "auto":
        raise ValueError(
            f"algorithm={algorithm!r} requires engine=; the engine-less path "
            f"always runs plain SpGEMM"
        )
    n = g.nrows
    if n == 0:
        return MCLResult(np.empty(0, dtype=INDEX_DTYPE), 0, 0)
    A = to_undirected_simple(g)
    loops = ops.scale_values(csr_eye(n), lambda v: v * self_loops)
    M = _column_normalize(ops.ewise_add(A.pattern(), loops))

    nnz_history: list[int] = []
    for it in range(1, max_iterations + 1):
        nnz_history.append(M.nnz)
        expanded = M
        for _ in range(expansion - 1):
            if engine is not None:
                expanded = engine.multiply(expanded, M, None,
                                           algorithm=algorithm,
                                           tag=f"mcl-it{it}").result
            else:
                expanded = spgemm(expanded, M)
        nxt = _inflate(expanded, inflation)
        nxt = _column_normalize(ops.prune(nxt, prune_threshold))
        if nxt.same_pattern(M) and np.allclose(nxt.data, M.data,
                                               atol=tolerance, rtol=0.0):
            M = nxt
            break
        M = nxt
    labels, k = _connected_components(M)
    return MCLResult(labels, k, it, nnz_history)
