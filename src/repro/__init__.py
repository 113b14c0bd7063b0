"""repro — Masked sparse matrix-matrix products (Masked SpGEMM).

A production-quality Python reproduction of

    Milaković, Selvitopi, Nisa, Budimlić, Buluç.
    "Parallel Algorithms for Masked Sparse Matrix-Matrix Products."
    PPoPP 2022 (arXiv:2111.09947).

Quickstart::

    import numpy as np
    from repro import CSRMatrix, Mask, masked_spgemm, csr_random

    A = csr_random(1000, 1000, density=0.01, rng=0)
    B = csr_random(1000, 1000, density=0.01, rng=1)
    M = csr_random(1000, 1000, density=0.02, rng=2)
    C = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa")

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.sparse` — CSR/CSC/COO formats and structural ops (from scratch)
* :mod:`repro.semiring` — GraphBLAS-style semirings
* :mod:`repro.mask` — structural masks (plain and complemented)
* :mod:`repro.accumulators` — the paper's §5 data structures (reference tier)
* :mod:`repro.core` — Masked SpGEMM kernels, 1P/2P, baselines, dispatcher
* :mod:`repro.parallel` — row partitioning and executors
* :mod:`repro.service` — serving layer: engine, result cache, async server
* :mod:`repro.graphs` — generators (ER, Graph500 R-MAT, …) and input suite
* :mod:`repro.algorithms` — triangle counting, k-truss, betweenness, BFS
* :mod:`repro.perfmodel` — §4 traffic model + LRU cache simulator
* :mod:`repro.bench` — metrics, Dolan-Moré profiles, harness, reporting
"""

__version__ = "1.0.0"

from .errors import (
    AccumulatorError,
    AlgorithmError,
    FormatError,
    IOFormatError,
    MaskError,
    ReproError,
    ShapeError,
)
from .sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    SparseVector,
    csr_eye,
    csr_from_dense,
    csr_from_edges,
    csr_random,
    matrix_fingerprint,
    pattern_fingerprint,
    value_fingerprint,
    read_matrix_market,
    write_matrix_market,
)
from .mask import Mask
from .semiring import (
    ARITHMETIC,
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_FIRST,
    PLUS_PAIR,
    PLUS_SECOND,
    PLUS_TIMES,
    Monoid,
    Semiring,
)
from .core import (
    SymbolicPlan,
    algorithm_info,
    available_algorithms,
    build_plan,
    display_name,
    masked_spgemm,
    masked_spgevm,
    masked_spmv,
    spgemm,
)
from .parallel import (
    SerialExecutor,
    SimulatedExecutor,
    ThreadExecutor,
)
from .service import (
    Engine,
    MatrixStore,
    Request,
    Response,
)
from .algorithms import (
    average_clustering,
    betweenness_centrality,
    clustering_coefficients,
    direction_optimized_bfs,
    ktruss,
    markov_clustering,
    multi_source_bfs,
    triangle_count,
)

__all__ = [
    "__version__",
    # errors
    "ReproError", "ShapeError", "FormatError", "MaskError",
    "AlgorithmError", "AccumulatorError", "IOFormatError",
    # sparse
    "COOMatrix", "CSRMatrix", "CSCMatrix", "SparseVector",
    "csr_eye", "csr_from_dense", "csr_from_edges", "csr_random",
    "read_matrix_market", "write_matrix_market",
    # mask & semirings
    "Mask", "Monoid", "Semiring",
    "PLUS_TIMES", "ARITHMETIC", "PLUS_PAIR", "PLUS_FIRST", "PLUS_SECOND",
    "MIN_PLUS", "MAX_TIMES", "OR_AND",
    # core
    "masked_spgemm", "masked_spgevm", "masked_spmv", "spgemm",
    "SymbolicPlan", "build_plan",
    "available_algorithms", "algorithm_info", "display_name",
    "matrix_fingerprint", "pattern_fingerprint", "value_fingerprint",
    # parallel
    "SerialExecutor", "ThreadExecutor", "SimulatedExecutor",
    # service
    "Engine", "MatrixStore", "Request", "Response",
    # applications
    "triangle_count", "ktruss", "betweenness_centrality", "multi_source_bfs",
    "clustering_coefficients", "average_clustering", "direction_optimized_bfs",
    "markov_clustering",
]
