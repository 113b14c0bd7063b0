"""Batch betweenness centrality via Masked SpGEMM (paper §8.4).

Multi-source two-stage Brandes [8] in the linear-algebra formulation
(GraphBLAS C API's canonical example, which the paper cites as the
motivating use of *complemented* masks):

**Forward (BFS) stage** — batch of s sources, matrices are s×n:

    NumSP[j, src_j] = 1
    Frontier = ¬NumSP ⊙ (NumSP · A)        (PLUS_FIRST semiring)
    while Frontier ≠ ∅:
        record S_d = pattern(Frontier)
        NumSP += Frontier
        Frontier = ¬NumSP ⊙ (Frontier · A)  (complemented Masked SpGEMM!)

The complemented mask expresses "extend paths only to vertices not yet
discovered" — the graph-traversal use the paper highlights in §1.

**Backward (dependency) stage**:

    BCU = 1 (dense s×n)
    for d = depth-1 .. 1:
        W  = S_d ⊙ (BCU / NumSP)
        W  = S_{d-1} ⊙ (W · Aᵀ)            (non-complemented Masked SpGEMM)
        BCU += W .* NumSP
    centrality(v) = Σ_j BCU[j, v] - s

Path counts live in a dense s×n ``numsp`` beside BCU; the sparse NumSP is
only the complemented mask's pattern. That mask keeps each frontier disjoint
from everything discovered, so ``NumSP += Frontier`` is a scatter into
``numsp`` and NumSP on S_d is the frontier's own values: no sparse
eWiseAdd or eWiseMult is left in the level loop.

Both stages together exercise the complemented and plain mask paths, which
is why the paper's BC results (Fig. 15/16) include only complement-capable
kernels (MCA is excluded; Inner/Heap/SS:DOT were "prohibitively slow").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import masked_spgemm
from ..mask import Mask
from ..semiring import PLUS_FIRST
from ..sparse import ops
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE


@dataclass
class BCResult:
    """Centrality scores plus traversal telemetry (for the TEPS metric)."""

    centrality: np.ndarray
    depth: int
    batch_size: int
    frontier_nnz: list[int] = field(default_factory=list)


def _sources_matrix(sources: np.ndarray, n: int) -> CSRMatrix:
    """s×n matrix with a single 1 per row at (j, sources[j])."""
    s = sources.size
    indptr = np.arange(s + 1, dtype=INDEX_DTYPE)
    return CSRMatrix(indptr, sources.astype(INDEX_DTYPE), np.ones(s), (s, n),
                     check=False)


def betweenness_centrality(
    g: CSRMatrix,
    sources: Sequence[int] | None = None,
    *,
    algorithm: str = "auto",
    phases: int = 1,
    executor=None,
    undirected: bool | None = None,
) -> BCResult:
    """Betweenness centrality from a batch of source vertices.

    Parameters
    ----------
    g : adjacency pattern (directed as stored; pass a symmetric pattern for
        undirected graphs).
    sources : batch of source vertex ids; ``None`` = all vertices (exact BC).
    algorithm : masked kernel for both stages; must support complemented
        masks (msa/hash/heap/heapdot — MCA raises, matching the paper).
        ``"auto"`` takes the compiled tier where it can run and the fused
        routing table otherwise.
    undirected : divide scores by 2 (each shortest path counted from both
        endpoints). Default: auto-detect pattern symmetry.

    Returns unnormalized scores comparable to
    ``networkx.betweenness_centrality(normalized=False)``.
    """
    n = g.nrows
    A = g.pattern()
    AT = ops.transpose_csr(A)
    if A.same_pattern(AT):
        AT = A  # all-ones patterns: bit-identical, one matrix fewer
    if undirected is None:
        undirected = AT is A
    src = (np.arange(n, dtype=INDEX_DTYPE) if sources is None
           else np.asarray(list(sources), dtype=INDEX_DTYPE))
    s = src.size
    if s == 0 or n == 0:
        return BCResult(np.zeros(n), 0, 0)

    # ---------------- forward: BFS with path counting ------------------- #
    NumSP = _sources_matrix(src, n)
    numsp = NumSP.to_dense()  # dense path counts: 1 at each source
    frontier = masked_spgemm(NumSP, A, Mask.from_matrix(NumSP, complemented=True),
                             algorithm=algorithm, semiring=PLUS_FIRST,
                             phases=phases, executor=executor)
    sigmas: list[CSRMatrix] = []
    frontier_nnz: list[int] = []
    while frontier.nnz:
        sigmas.append(frontier)
        frontier_nnz.append(frontier.nnz)
        # NumSP += Frontier: the frontier is disjoint from NumSP's pattern
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), frontier.row_nnz())
        numsp[rows, frontier.indices] = frontier.data
        NumSP = ops.pattern_union(NumSP, frontier)
        frontier = masked_spgemm(
            frontier, A, Mask.from_matrix(NumSP, complemented=True),
            algorithm=algorithm, semiring=PLUS_FIRST, phases=phases,
            executor=executor)
    depth = len(sigmas)

    # ---------------- backward: dependency accumulation ----------------- #
    bcu = np.ones((s, n), dtype=np.float64)
    for d in range(depth - 1, 0, -1):
        Sd = sigmas[d]
        # W = S_d ⊙ (BCU / NumSP) — NumSP on S_d is the frontier's values
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), Sd.row_nnz())
        W = CSRMatrix(Sd.indptr, Sd.indices, bcu[rows, Sd.indices] / Sd.data,
                      (s, n), check=False)
        # W = S_{d-1} ⊙ (W · Aᵀ)
        W = masked_spgemm(W, AT, Mask.from_matrix(sigmas[d - 1]),
                          algorithm=algorithm, semiring=PLUS_FIRST,
                          phases=phases, executor=executor)
        # BCU += W .* NumSP
        rows_w = np.repeat(np.arange(s, dtype=INDEX_DTYPE), W.row_nnz())
        bcu[rows_w, W.indices] += W.data * numsp[rows_w, W.indices]

    centrality = bcu.sum(axis=0) - s
    if undirected:
        centrality = centrality / 2.0
    return BCResult(centrality, depth, int(s), frontier_nnz)
