"""Graph applications built on Masked SpGEMM (the paper's three benchmarks
plus a bonus multi-source BFS).

Each application is "implemented within the GraphBLAS specifications,
substituting Masked SpGEMM operations with calls to different algorithms"
(paper §7) — i.e. every function takes an ``algorithm=`` knob that selects
the masked kernel under test.
"""

from .triangle_count import triangle_count, triangle_count_matrix
from .ktruss import ktruss, ktruss_delta
from .betweenness import betweenness_centrality
from .bfs import multi_source_bfs

__all__ = [
    "triangle_count",
    "triangle_count_matrix",
    "ktruss",
    "ktruss_delta",
    "betweenness_centrality",
    "multi_source_bfs",
]
