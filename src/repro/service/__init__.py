"""Serving layer: a masked-SpGEMM execution engine with symbolic plan
caching.

The one-shot :func:`repro.core.masked_spgemm` recomputes everything per
call. Real deployments don't look like that: iterative graph algorithms
(k-truss, MCL, betweenness) and high-traffic services repeatedly multiply
under the *same or slowly-changing mask pattern*, so the pattern-only work —
algorithm auto-selection and the paper's §6 symbolic phase — can be computed
once and amortized. This package is that amortization layer:

* :class:`MatrixStore` — named operand registry with pattern- and
  value-fingerprint memoization, memory accounting and LRU eviction;
* :class:`PlanCache` — fingerprint-keyed LRU of
  :class:`~repro.core.plan.SymbolicPlan` objects;
* :class:`ResultCache` — byte-accounted LRU memoizing *whole numeric
  results* keyed on (pattern fingerprints, value hashes) — the tier in
  front of the plan cache;
* :class:`PlanStore` — ``.npz`` persistence for cached plans, so engine
  warm starts survive restarts (``Engine.save_plans`` / ``load_plans``);
* :class:`Engine` — resolves requests against the store, serves results
  and plans from the caches (warm requests skip auto-select *and* the
  symbolic pass; result hits skip everything), and records
  per-request/aggregate stats;
* :class:`AsyncServer` — the asyncio front end: admission queue, bounded
  backpressure (max in-flight / max queued flops), a worker pool running
  one request per worker, graceful shutdown — the ``python -m repro
  serve`` entry point;
* :mod:`~repro.service.workload` — JSON workload specs, the input to
  ``python -m repro serve workload.json``;
* delta serving (:mod:`repro.delta`, re-exported here) — edge
  insert/delete/update batches mutate a stored operand *in place*:
  value-only deltas carry the pattern fingerprint forward (plans keep
  hitting), pattern deltas re-run symbolic only over the dirty rows and
  splice the cached plan onto the new fingerprint
  (``Engine.apply_delta`` / ``AsyncServer.apply_delta``).

Quickstart::

    from repro import CSRMatrix, csr_random
    from repro.service import Engine, Request

    eng = Engine()
    eng.register("A", csr_random(500, 500, density=0.02, rng=0))
    eng.register("M", csr_random(500, 500, density=0.05, rng=1))
    cold = eng.submit(Request(a="A", b="A", mask="M", phases=2))
    warm = eng.submit(Request(a="A", b="A", mask="M", phases=2))
    assert warm.stats.plan_cache_hit and warm.stats.symbolic_skipped
"""

from ..delta import DeltaBatch, DeltaError, DeltaOutcome
from .engine import Engine, EngineStats
from .plan import PlanCache, PlanStore, PlanStoreError, plan_key
from .requests import DeltaRequest, Request, RequestStats, Response
from .result_cache import ResultCache, result_key
from .server import AsyncServer, ServerClosed, ServerError, ServerStats, serve_all
from .store import MatrixStore, StoreError, matrix_nbytes
from .workload import (
    expand_requests,
    load_workload,
    register_matrices,
    render_serve_report,
)

__all__ = [
    "Engine",
    "EngineStats",
    "MatrixStore",
    "StoreError",
    "matrix_nbytes",
    "PlanCache",
    "PlanStore",
    "PlanStoreError",
    "plan_key",
    "ResultCache",
    "result_key",
    "AsyncServer",
    "ServerClosed",
    "ServerError",
    "ServerStats",
    "serve_all",
    "Request",
    "RequestStats",
    "Response",
    "DeltaBatch",
    "DeltaError",
    "DeltaOutcome",
    "DeltaRequest",
    "load_workload",
    "expand_requests",
    "register_matrices",
    "render_serve_report",
]
