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

**Direction per product.** The paper's BC results (Fig. 15/16) include
only push kernels: the pull-based Inner would need "a dot per absent
entry" under a complemented mask. With ``visited`` a bitmap the unvisited
columns of a row are its zero bytes, so the compiled pull (``msa-pull``)
lists them with a word scan and folds each one's in-neighbours, in the
push loops' stream order: the same bits. With ``algorithm="auto"`` and the
compiled tier able to run the products, each product takes the direction
with the smaller exact work (as in Beamer's direction-optimizing BFS, with
exact counts in place of that BFS's heuristic thresholds):

* forward, ``Frontier · A`` under ¬visited: push folds Σ deg_out over the
  frontier entries; pull skips the rows whose frontier is empty and, in
  the others, scans the bitmap (one word per eight bytes) and folds
  Σ deg_in over the unvisited columns, a per-row sum kept by subtracting
  each level's newly visited in-degrees;
* backward, ``W · Aᵀ`` under S_{d-1}: push folds Σ deg_in over W's
  entries; pull folds Σ deg_out over S_{d-1}'s entries in W's nonempty
  rows.

The pull reads Bᵀ from a transpose memo, seeded here with the ``A``/``Aᵀ``
pair (``A`` itself when symmetric) through
:func:`repro.native.kernels.remember_transpose`.
An explicit ``algorithm`` runs that key on every product, so the paper's
per-kernel rows stay pure push (and ``"msa-pull"`` pulls every product).

Both stages together exercise the complemented and plain mask paths, which
is why the paper's BC results include only complement-capable kernels (MCA
is excluded; Inner/Heap/SS:DOT were "prohibitively slow").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import masked_spgemm
from ..mask import Mask
from ..native import kernels as native_kernels
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


def _row_sums(M: CSRMatrix, weights: np.ndarray) -> np.ndarray:
    """Per row of ``M``, the sum of ``weights`` over its column ids."""
    c = np.zeros(M.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(weights[M.indices], out=c[1:])
    return c[M.indptr[1:]] - c[M.indptr[:-1]]


def _scan_words(n: int) -> int:
    """Words the pull reads to scan one bitmap row of ``n`` bytes."""
    return (n + 7) // 8


def forward_work(frontier: CSRMatrix, A: CSRMatrix, AT: CSRMatrix,
                 visited: np.ndarray) -> tuple[int, int]:
    """Exact (push, pull) work of the forward product ``¬visited ⊙
    (frontier · A)``. Push folds one product per entry of A's rows under
    the frontier's entries. Pull skips a row with an empty frontier; in
    every other row it scans the bitmap (one word per 8 bytes) and folds
    one product per entry of Aᵀ's rows under the unvisited columns. The
    level loop keeps the same count incrementally; this one counts from
    scratch."""
    live = frontier.row_nnz() > 0
    push = int(A.row_nnz()[frontier.indices].sum())
    folds = int(((~visited[live]) @ AT.row_nnz()).sum())
    return push, folds + int(live.sum()) * _scan_words(A.ncols)


def backward_work(W: CSRMatrix, S_prev: CSRMatrix, A: CSRMatrix,
                  AT: CSRMatrix) -> tuple[int, int]:
    """Exact (push, pull) work of the backward product ``S_prev ⊙ (W ·
    Aᵀ)``: push folds Aᵀ's rows under W's entries; pull folds A's rows
    under S_prev's entries, in the rows where W has any."""
    push = int(AT.row_nnz()[W.indices].sum())
    pull = int(_row_sums(S_prev, A.row_nnz())[W.row_nnz() > 0].sum())
    return push, pull


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
        masks (msa/hash/heap/heapdot, msa-native, msa-pull — MCA raises,
        matching the paper). ``"auto"`` takes the compiled tier where it
        can run and the fused routing table otherwise; on the compiled
        tier it also picks push or pull per product by exact work (see the
        module docstring). Any other key runs on every product.
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
    # the pull reads each product's Bᵀ from the memo: Aᵀ forward, A back
    native_kernels.remember_transpose(A, AT)
    native_kernels.remember_transpose(AT, A)
    direct = (algorithm == "auto"
              and native_kernels.eligible(A, A, None, PLUS_FIRST))

    def pick(work) -> str:
        push, pull = work
        return "msa-pull" if pull < push else algorithm

    # ---------------- forward: BFS with path counting ------------------- #
    NumSP = _sources_matrix(src, n)
    numsp = NumSP.to_dense()  # dense path counts: 1 at each source
    visited = numsp != 0      # NumSP's pattern
    deg_out, deg_in = A.row_nnz(), AT.row_nnz()
    # per row, Σ deg_in over its unvisited columns: the pull's folds
    unvisited_in = A.nnz - deg_in[src]
    frontier = NumSP
    sigmas: list[CSRMatrix] = []
    frontier_nnz: list[int] = []
    while True:
        key = algorithm
        if direct:  # forward_work, kept incrementally
            live = frontier.row_nnz() > 0
            key = pick((int(deg_out[frontier.indices].sum()),
                        int(unvisited_in[live].sum())
                        + int(live.sum()) * _scan_words(n)))
        frontier = masked_spgemm(
            frontier, A, Mask.from_bitmap(visited.copy(), complemented=True),
            algorithm=key, semiring=PLUS_FIRST, phases=phases,
            executor=executor)
        if not frontier.nnz:
            break
        sigmas.append(frontier)
        frontier_nnz.append(frontier.nnz)
        # NumSP += Frontier: the frontier is disjoint from NumSP's pattern
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), frontier.row_nnz())
        numsp[rows, frontier.indices] = frontier.data
        visited[rows, frontier.indices] = True
        if direct:
            unvisited_in -= _row_sums(frontier, deg_in)
    depth = len(sigmas)

    # ---------------- backward: dependency accumulation ----------------- #
    bcu = np.ones((s, n), dtype=np.float64)
    for d in range(depth - 1, 0, -1):
        Sd, Sprev = sigmas[d], sigmas[d - 1]
        # W = S_d ⊙ (BCU / NumSP) — NumSP on S_d is the frontier's values
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), Sd.row_nnz())
        W = CSRMatrix(Sd.indptr, Sd.indices, bcu[rows, Sd.indices] / Sd.data,
                      (s, n), check=False)
        # W = S_{d-1} ⊙ (W · Aᵀ); S_{d-1} is a kernel output, canonical
        key = pick(backward_work(W, Sprev, A, AT)) if direct else algorithm
        W = masked_spgemm(W, AT, Mask.from_matrix(Sprev, check=False),
                          algorithm=key, semiring=PLUS_FIRST,
                          phases=phases, executor=executor)
        # BCU += W .* NumSP
        rows_w = np.repeat(np.arange(s, dtype=INDEX_DTYPE), W.row_nnz())
        bcu[rows_w, W.indices] += W.data * numsp[rows_w, W.indices]

    centrality = bcu.sum(axis=0) - s
    if undirected:
        centrality = centrality / 2.0
    return BCResult(centrality, depth, int(s), frontier_nnz)
