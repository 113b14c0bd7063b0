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

Path counts live in a dense s×n ``numsp`` beside BCU, and NumSP's pattern —
the complemented mask, every vertex discovered so far — is a dense s×n
``visited`` bitmap (:meth:`~repro.mask.Mask.from_bitmap`). That mask keeps
each frontier disjoint from everything discovered, so ``NumSP += Frontier``
is one scatter into ``numsp`` and ``visited`` and NumSP on S_d is the
frontier's own values: no sparse eWiseAdd or eWiseMult is left in the level
loop, and no CSR mask is rebuilt per level. Each level's product gets its
own copy of the bitmap, so a mask a caller keeps is never changed by a
later level. On the compiled tier (``msa-native``) the complemented loop
reads the bitmap rows in place; no CSR form of the mask is built.

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


def _check_sources(sources: np.ndarray, n: int) -> None:
    """Reject source ids outside ``[0, n)``: numpy would wrap a negative id
    to a vertex from the end and fail on a large one with a bare index
    error."""
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise ValueError(f"source {int(bad[0])} out of range [0, {n})")


def _sources_matrix(sources: np.ndarray, n: int) -> CSRMatrix:
    """s×n matrix with a single 1 per row at (j, sources[j])."""
    s = sources.size
    indptr = np.arange(s + 1, dtype=INDEX_DTYPE)
    return CSRMatrix(indptr, sources.astype(INDEX_DTYPE), np.ones(s), (s, n),
                     check=False)


def _is_symmetric(A: CSRMatrix) -> bool:
    """True when A's stored pattern equals its transpose's. Compares the
    sorted transposed keys with the row keys (already sorted in canonical
    CSR), which is cheaper than building the transpose."""
    n = A.nrows
    counts = A.row_nnz()
    if A.ncols != n or not np.array_equal(
            counts, np.bincount(A.indices, minlength=n)):
        return False
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), counts)
    t_keys = A.indices * n + rows
    t_keys.sort()
    return bool(np.array_equal(rows * n + A.indices, t_keys))


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
    # all-ones patterns: a symmetric A is its own transpose, bit for bit
    AT = A if _is_symmetric(A) else ops.transpose_csr(A)
    if undirected is None:
        undirected = AT is A
    src = (np.arange(n, dtype=INDEX_DTYPE) if sources is None
           else np.asarray(list(sources), dtype=INDEX_DTYPE))
    s = src.size
    if s == 0 or n == 0:
        return BCResult(np.zeros(n), 0, 0)
    _check_sources(src, n)

    # ---------------- forward: BFS with path counting ------------------- #
    NumSP = _sources_matrix(src, n)
    numsp = NumSP.to_dense()  # dense path counts: 1 at each source
    visited = numsp != 0      # NumSP's pattern
    frontier = NumSP
    sigmas: list[CSRMatrix] = []
    frontier_nnz: list[int] = []
    while True:
        frontier = masked_spgemm(
            frontier, A, Mask.from_bitmap(visited.copy(), complemented=True),
            algorithm=algorithm, semiring=PLUS_FIRST, phases=phases,
            executor=executor)
        if not frontier.nnz:
            break
        sigmas.append(frontier)
        frontier_nnz.append(frontier.nnz)
        # NumSP += Frontier: the frontier is disjoint from NumSP's pattern
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), frontier.row_nnz())
        numsp[rows, frontier.indices] = frontier.data
        visited[rows, frontier.indices] = True
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
