"""Multi-source BFS with complemented masks (bonus application).

Not one of the paper's three benchmarks, but the cleanest illustration of
its motivating sentence: masked products implement "any multi-source graph
traversal where the mask serves as a filter to avoid rediscovery of
previously discovered vertices" (§1). Each BFS step is

    Frontier = ¬Visited ⊙ (Frontier · A)

on the OR_AND boolean semiring. The visited set is the bitmap
``levels >= 0`` (:meth:`~repro.mask.Mask.from_bitmap`), fresh every level:
no CSR mask is rebuilt and no pattern union is taken.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import masked_spgemm
from ..mask import Mask
from ..semiring import OR_AND
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE
from .betweenness import _check_sources, _sources_matrix


def multi_source_bfs(g: CSRMatrix, sources: Sequence[int], *,
                     algorithm: str = "auto", executor=None) -> np.ndarray:
    """BFS levels from each source.

    Returns an (s, n) int array: entry [j, v] is the BFS depth of vertex v
    from ``sources[j]`` (0 for the source itself), or -1 if unreachable.
    ``algorithm="auto"`` runs each step on the compiled tier where it can
    and on the fused routing table's complement-capable pick otherwise.
    """
    n = g.nrows
    A = g.pattern()
    src = np.asarray(list(sources), dtype=INDEX_DTYPE)
    s = src.size
    levels = np.full((s, n), -1, dtype=np.int64)
    if s == 0 or n == 0:
        return levels
    _check_sources(src, n)
    levels[np.arange(s), src] = 0

    frontier = _sources_matrix(src, n)
    depth = 0
    while frontier.nnz:
        depth += 1
        frontier = masked_spgemm(
            frontier, A, Mask.from_bitmap(levels >= 0, complemented=True),
            algorithm=algorithm, semiring=OR_AND, executor=executor)
        rows = np.repeat(np.arange(s, dtype=INDEX_DTYPE), frontier.row_nnz())
        levels[rows, frontier.indices] = depth
    return levels
