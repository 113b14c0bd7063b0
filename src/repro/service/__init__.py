"""Serving layer: a masked-SpGEMM execution engine with result caching.

The one-shot :func:`repro.core.masked_spgemm` recomputes everything per
call. Serving traffic repeats: the same products are asked for again on
unchanged operands, and graphs change by small edge deltas between
queries. This package is the layer that serves that traffic:

* :class:`MatrixStore` — named operand registry with pattern- and
  value-fingerprint memoization, memory accounting and LRU eviction;
* :class:`ResultCache` — byte-accounted LRU memoizing *whole numeric
  results* keyed on (pattern fingerprints, value hashes);
* :class:`Engine` — resolves requests against the store, serves repeats
  from the result cache, runs every other request one-phase down the
  native → fused → loop degrade ladder, and records per-request/aggregate
  stats;
* :class:`AsyncServer` — the asyncio front end: admission queue, bounded
  backpressure (max in-flight / max queued flops), a worker pool running
  one request per worker, graceful shutdown — the ``python -m repro
  serve`` entry point;
* :mod:`~repro.service.workload` — JSON workload specs, the input to
  ``python -m repro serve workload.json``;
* delta serving (:mod:`repro.delta`, re-exported here) — edge
  insert/delete/update batches swap a stored operand for its mutated copy
  and invalidate the cached results that read the old content
  (``Engine.apply_delta`` / ``AsyncServer.apply_delta``).

Quickstart::

    from repro import CSRMatrix, csr_random
    from repro.service import Engine, Request

    eng = Engine(result_cache_bytes=64 << 20)
    eng.register("A", csr_random(500, 500, density=0.02, rng=0))
    eng.register("M", csr_random(500, 500, density=0.05, rng=1))
    first = eng.submit(Request(a="A", b="A", mask="M"))
    again = eng.submit(Request(a="A", b="A", mask="M"))
    assert again.stats.result_cache_hit
    assert again.result.equals(first.result)
"""

from ..delta import DeltaBatch, DeltaError, DeltaOutcome
from .engine import Engine, EngineStats
from .requests import Request, RequestStats, Response
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
    "load_workload",
    "expand_requests",
    "register_matrices",
    "render_serve_report",
]
