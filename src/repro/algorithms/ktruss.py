"""k-truss via iterated Masked SpGEMM (paper §8.3).

The k-truss of a graph is the maximal subgraph in which every edge is
supported by at least k-2 triangles. The GraphBLAS formulation (Davis,
HPEC'18 — the paper's reference [15]) iterates:

    S = C ⊙ (C·C)  with PLUS_PAIR      # S[i,j] = #triangles on edge (i,j)
    C = pattern of entries of S with support ≥ k-2

until the edge set stops changing. "Masked SpGEMM in an iterative manner
where the graph keeps changing due to pruning of some edges" — note the mask
*is* the shrinking graph itself, so mask density decays over iterations,
which is why pull-based Inner does unexpectedly well here (paper §8.3).

Without an engine every product is a direct :func:`masked_spgemm` call at
the requested ``phases`` — the paper's ``<Alg>-1P``/``<Alg>-2P`` variants
that Figs. 12–14 measure. Each iteration's pattern is new (edges were just
pruned), so there is nothing to reuse between products of one solve. Pass
an ``engine`` to serve the products through it instead (tracing, metrics,
the degrade ladder); the engine runs them one-phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import masked_spgemm
from ..core.expand import total_flops
from ..semiring import PLUS_PAIR
from ..sparse import ops
from ..sparse.csr import CSRMatrix
from ..graphs.prep import to_undirected_simple


@dataclass
class KTrussResult:
    """k-truss output plus the per-iteration telemetry the paper's GFLOPS
    metric needs ("the sum of flops required to perform all Masked SpGEMM
    operations divided by total time", §8.3)."""

    subgraph: CSRMatrix
    iterations: int
    flops_per_iteration: list[int] = field(default_factory=list)
    nnz_per_iteration: list[int] = field(default_factory=list)

    @property
    def total_flops(self) -> int:
        return 2 * sum(self.flops_per_iteration)  # multiply + add convention


def ktruss(g: CSRMatrix, k: int, *, algorithm: str = "auto", phases: int = 1,
           executor=None, prepared: bool = False, max_iterations: int = 1000,
           engine=None) -> KTrussResult:
    """Compute the k-truss of an undirected graph.

    Parameters
    ----------
    g : adjacency pattern (symmetrized/cleaned unless ``prepared=True``).
    k : truss order (k ≥ 2; the paper benchmarks k=5). k=2 returns the
        input (every edge is trivially in 0 ≥ 0 triangles).
    algorithm, phases, executor : forwarded to every masked product. The
        default ``"auto"`` routes the PLUS_PAIR support product to the
        compiled ``msa-native`` kernel when a native backend is available
        (the fused fallback's pick otherwise, e.g. under
        ``REPRO_NATIVE=off``); every kernel gives the same subgraph.
    engine : optional :class:`repro.service.Engine` serving every product
        (one-phase; its own executor takes precedence over ``executor``).
        When omitted, each product is a direct :func:`masked_spgemm` call.
    """
    if k < 2:
        raise ValueError(f"k-truss needs k >= 2, got {k}")
    C = (g if prepared else to_undirected_simple(g)).pattern()
    support_needed = k - 2
    if support_needed == 0:
        # every edge is trivially supported; no multiplication needed
        return KTrussResult(C, 0, [], [])
    flops_log: list[int] = []
    nnz_log: list[int] = []

    for it in range(1, max_iterations + 1):
        if C.nnz == 0:
            return KTrussResult(C, it - 1, flops_log, nnz_log)
        flops_log.append(total_flops(C, C))
        nnz_log.append(C.nnz)
        if engine is None:
            S = masked_spgemm(C, C, C, algorithm=algorithm,
                              semiring=PLUS_PAIR, phases=phases,
                              executor=executor)
        else:
            S = engine.multiply(C, C, C, algorithm=algorithm,
                                semiring=PLUS_PAIR, phases=phases,
                                tag=f"ktruss-it{it}").result
        # keep edges with enough support; S misses edges with zero triangles,
        # which is precisely "support 0", so pruning via S is exact for k>2.
        kept = ops.prune(S, tol=support_needed - 0.5).pattern()
        if kept.nnz == C.nnz:
            return KTrussResult(kept, it, flops_log, nnz_log)
        C = kept
    raise RuntimeError(f"k-truss failed to converge in {max_iterations} iterations")


def _edge_coords(m: CSRMatrix):
    """Stored (row, col) coordinates of ``m`` as an (nnz, 2) array — the
    :class:`~repro.delta.DeltaBatch` ndarray fast path."""
    import numpy as np

    rows = np.repeat(np.arange(m.nrows), m.row_nnz())
    return np.column_stack((rows, m.indices))


def ktruss_delta(g: CSRMatrix, k: int, *, algorithm: str = "auto",
                 phases: int = 1, prepared: bool = False,
                 max_iterations: int = 1000, engine=None,
                 store_key: str = "ktruss:C") -> KTrussResult:
    """k-truss iterated via pattern deltas (the streaming-serving path).

    Same fixpoint as :func:`ktruss`, served the way a long-lived service
    sees a shrinking graph: the support matrix is *registered once* under
    ``store_key`` and each iteration's pruned edges are applied as a
    delete-only :class:`~repro.delta.DeltaBatch`. :meth:`Engine.apply_delta`
    swaps the store entry and invalidates the results that read the old
    content; each iteration's product then runs in full on the new pattern,
    unless the engine's result cache already holds it (a shared engine that
    has served this solve before). Output is bit-identical to
    :func:`ktruss` on the same inputs, and the defaults (one-phase,
    ``algorithm="auto"``) are the same: the support product runs on the compiled ``msa-native`` kernel
    when a native backend is available, and on the fused fallback's pick
    otherwise (e.g. under ``REPRO_NATIVE=off``).
    """
    if k < 2:
        raise ValueError(f"k-truss needs k >= 2, got {k}")
    if engine is None:
        from ..service import Engine

        engine = Engine()
    from ..service import Request

    C = (g if prepared else to_undirected_simple(g)).pattern()
    support_needed = k - 2
    if support_needed == 0:
        return KTrussResult(C, 0, [], [])
    engine.register(store_key, C)
    req = Request(a=store_key, b=store_key, mask=store_key,
                  algorithm=algorithm, phases=phases, semiring="plus_pair")
    flops_log: list[int] = []
    nnz_log: list[int] = []
    try:
        for it in range(1, max_iterations + 1):
            if C.nnz == 0:
                return KTrussResult(C, it - 1, flops_log, nnz_log)
            flops_log.append(total_flops(C, C))
            nnz_log.append(C.nnz)
            req.tag = f"ktruss-delta-it{it}"
            S = engine.submit(req).result
            kept = ops.prune(S, tol=support_needed - 0.5).pattern()
            if kept.nnz == C.nnz:
                return KTrussResult(kept, it, flops_log, nnz_log)
            pruned = ops.pattern_difference(C, kept)
            from ..delta import DeltaBatch

            engine.apply_delta(store_key,
                               DeltaBatch(delete=_edge_coords(pruned)))
            C = kept
    finally:
        engine.evict(store_key)
    raise RuntimeError(
        f"k-truss failed to converge in {max_iterations} iterations")
