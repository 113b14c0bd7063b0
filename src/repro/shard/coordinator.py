"""Shard coordinator: a persistent worker pool executing row-partitioned
masked SpGEMM through shared memory.

``ShardCoordinator`` is the execution half of :mod:`repro.shard`. It owns

* a :class:`~repro.shard.store.ShardedMatrixStore` of operand segments,
* a :class:`~repro.shard.planner.ShardPlanner` memoizing row partitions,
* a **persistent** process pool of ``nshards`` workers (created lazily on
  first dispatch, reused across requests — unlike
  :class:`repro.parallel.executor.ProcessExecutor`, which forks a fresh
  pool per call and pays the fork + teardown on every product).

One product (:meth:`multiply`) runs as:

1. split the two-phase plan's row sizes into balanced contiguous shard
   plans (memoized per plan key);
2. allocate one shared output segment sized to the plan's exact nnz and
   compute the output ``indptr`` coordinator-side (one cumsum);
3. dispatch one :func:`repro.shard.worker.numeric_task` per shard — each
   worker scatters its rows straight into the shared ``cols``/``vals`` via
   the kernel's ``numeric_rows_into``, closing the "process pools keep the
   stitch path" gap from PR 4: children *can* write the final arrays when
   the arrays are a shared mapping;
4. assemble the result **without copying**: the returned
   :class:`~repro.sparse.csr.CSRMatrix` views the shared segment, whose
   name is unlinked immediately (crash hygiene) while the memory lives
   until the last view is garbage collected
   (:func:`repro.shard.memory.adopt_arrays`).

Failure and lifecycle behaviour is deliberately boring: any worker error
unlinks the request's output segment before propagating; :meth:`close`
terminates the pool and unlinks every owned segment, is idempotent, and is
also registered via ``weakref.finalize`` so an abandoned coordinator cannot
leak ``/dev/shm`` space for the life of the process.

:func:`shard_masked_spgemm` is the one-shot functional face (what
``parallel_masked_spgemm(backend="shard")`` routes to); long-lived services
use the coordinator through :class:`repro.service.engine.Engine`
(``Engine(shards=N)``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
import weakref

import numpy as np

from ..core import registry
from ..core.plan import SymbolicPlan
from ..errors import AlgorithmError
from ..mask import Mask
from ..obs.trace import current_record, span
from ..resilience.faults import wire_format
from ..semiring import PLUS_TIMES, Semiring
from ..semiring.standard import _REGISTRY as _SEMIRING_REGISTRY
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_multiplicable
from . import worker as worker_mod
from .memory import (
    MatrixHandle,
    SegmentPool,
    ShardError,
    WorkerDied,
    acquire_output,
    adopt_arrays,
    attach,
    output_arrays,
    shared_memory_available,
)
from .planner import ShardPlanner, split_rows
from .store import ShardedMatrixStore

_ADHOC_KEYS = itertools.count()


def _pool_context():
    """Prefer ``fork`` (workers inherit the import state; startup is
    milliseconds); fall back to ``spawn`` where fork is unavailable. Both
    work — segments are attached by *name*, never inherited."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ShardCoordinator:
    """Row-partitioned masked-SpGEMM execution across a persistent pool.

    Parameters
    ----------
    nshards : worker-pool size = number of row partitions per product.
    store : optional pre-built :class:`ShardedMatrixStore` (a fresh one by
        default; :class:`~repro.service.engine.Engine` shares its own).
    faults : optional :class:`~repro.resilience.faults.FaultPlan` — the
        chaos seam. The coordinator does the fault *counting* here in one
        process and ships each fired spec on exactly one task's arguments,
        so "kill one worker" kills exactly one, deterministically.
    chunk_observer : optional ``fn(seconds, kernel, phase, trace_id)`` sink
        fed each worker-timed chunk parent-side after a scatter — the
        engine wires ``repro_chunk_seconds`` in, so per-chunk timings
        populate even with tracing disabled.
    scatter_observer : optional ``fn(seconds, phase, trace_id)`` sink fed
        the coordinator-side fan-out wall time of each scatter
        (``repro_shard_scatter_seconds``), measured at this call site.
    """

    def __init__(self, nshards: int, *, store: ShardedMatrixStore | None = None,
                 faults=None, chunk_observer=None, scatter_observer=None):
        if nshards <= 0:
            raise ShardError(f"nshards must be positive, got {nshards}")
        self.nshards = int(nshards)
        self.store = store if store is not None else ShardedMatrixStore()
        #: recycles output segments across requests (warm serving reuses a
        #: same-size-class mapping instead of shm_open/mmap per product)
        self.segment_pool = SegmentPool(self.store.registry)
        self.planner = ShardPlanner(self.nshards)
        self.faults = faults
        self._chunk_observer = chunk_observer
        self._scatter_observer = scatter_observer
        self._pool = None
        self._pool_lock = threading.Lock()
        self._closed = False
        #: requests executed / shard tasks dispatched (engine telemetry)
        self.products = 0
        self.tasks = 0
        #: times a broken pool was torn down for respawn (self-healing)
        self.respawns = 0
        self._finalizer = weakref.finalize(self, ShardCoordinator._cleanup,
                                           self.store)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self):
        if self._closed:
            raise ShardError("coordinator is closed")
        if self._pool is None:
            # locked: concurrent first dispatches (async-server worker
            # threads) must not each fork a pool and orphan all but one
            with self._pool_lock:
                if self._pool is None and not self._closed:
                    ctx = _pool_context()
                    self._pool = ctx.Pool(processes=self.nshards,
                                          initializer=worker_mod.reset_caches)
        if self._pool is None:  # pragma: no cover - closed during the race
            raise ShardError("coordinator is closed")
        return self._pool

    @staticmethod
    def _cleanup(store: ShardedMatrixStore) -> None:
        store.close()

    def _break_pool(self) -> None:
        """Tear down a pool with a dead worker so the next dispatch
        respawns a fresh one (the self-healing half of
        :class:`~repro.shard.memory.WorkerDied`). Safe under concurrent
        scatters: their polls see the dead processes and fail the same way.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
            self.respawns += 1

    def quiesce(self) -> bool:
        """Park the pool while a circuit breaker holds the shard tier out
        of rotation.

        An idle pool is not free: its support threads contend for the GIL
        with the in-process kernels the degraded engine is now serving
        from (one switch-interval stall per request). Terminating the
        workers and those threads makes degraded serving cost what plain
        in-process serving costs; the breaker's half-open probe respawns
        everything through the lazy :meth:`_ensure_pool`. Returns True if
        there was a pool to park. Unlike :meth:`_break_pool` this is not a
        failure-driven respawn, so it does not count in :attr:`respawns`.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
            return True
        return False

    def heal(self) -> list[str]:
        """Make the shard tier dispatchable again after a worker death.

        Respawns the pool if it was broken and verifies every operand
        segment is still attachable; returns the store keys whose segments
        are gone (callers holding the original matrices — the engine's
        in-process :class:`~repro.service.store.MatrixStore` — re-share
        those before retrying).
        """
        if self._closed:
            return []
        self._ensure_pool()
        return self.verify_segments()

    def verify_segments(self) -> list[str]:
        """Store keys whose shared segments can no longer be attached."""
        missing = []
        for key in self.store.keys():
            try:
                handle = self.store.handle(key)
                seg = attach(handle.name)
            except (ShardError, OSError):
                missing.append(key)
            else:
                seg.close()
        return missing

    # ------------------------------------------------------------------ #
    # scatter: dispatch + bounded wait
    # ------------------------------------------------------------------ #
    _POLL_SECONDS = 0.05

    def _scatter(self, func, tasks, *, deadline=None) -> list:
        """Dispatch ``tasks`` across the pool and wait — without the
        stdlib's failure mode.

        ``Pool.map`` blocks forever when a worker dies mid-task (its tasks
        are simply lost; the pool respawns processes but never completes
        the map). This replaces it with ``map_async`` plus a poll loop
        that, each tick, (a) enforces the request deadline — raising
        :class:`~repro.resilience.deadline.DeadlineExceeded` and
        *abandoning* the in-flight map (workers finish writing into a
        mapping whose name the caller unlinks; the pages die with the last
        mapping) — and (b) checks a snapshot of the pool's worker
        processes for deaths, raising
        :class:`~repro.shard.memory.WorkerDied` after breaking the pool so
        the next dispatch respawns it.
        """
        pool = self._ensure_pool()
        procs = list(getattr(pool, "_pool", None) or [])
        result = pool.map_async(func, tasks)
        while True:
            timeout = self._POLL_SECONDS
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0 and not result.ready():
                    deadline.check(
                        "scatter", f"{len(tasks)} shard tasks in flight")
                timeout = min(timeout, max(remaining, 1e-3))
            result.wait(timeout)
            if result.ready():
                return result.get()  # re-raises pickled worker exceptions
            if procs and any(not p.is_alive() for p in procs):
                # a short grace: the map may have completed concurrently
                result.wait(self._POLL_SECONDS)
                if result.ready():
                    return result.get()
                self._break_pool()
                raise WorkerDied(
                    f"shard worker died mid-scatter "
                    f"({len(tasks)} tasks lost); pool broken for respawn")

    def close(self) -> None:
        """Terminate the pool and unlink every owned segment. Idempotent —
        called from engine shutdown, ``with`` exits, and error paths alike.

        The pool swap happens under ``_pool_lock`` so a concurrent first
        dispatch cannot fork a pool *after* close() checked and found none
        (the orphaned-workers race)."""
        self._closed = True
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        # pool before registry: drain the free lists so close sees every
        # segment exactly once (late releases after this retire directly)
        self.segment_pool.close()
        self.store.close()
        self._finalizer.detach()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # eligibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def eligible(algorithm: str, semiring: Semiring) -> bool:
        """Can this request run sharded? Requires a direct-write kernel
        (``numeric_rows_into``) and a registered semiring (task messages
        carry semirings by name — same constraint as the process executor).
        """
        if semiring.name not in _SEMIRING_REGISTRY:
            return False
        try:
            spec = registry.get_spec(algorithm)
        except AlgorithmError:
            return False
        return spec.numeric_into is not None

    # ------------------------------------------------------------------ #
    # operand plumbing
    # ------------------------------------------------------------------ #
    def share(self, key: str, value: CSRMatrix | Mask) -> MatrixHandle:
        """Register (or replace) an operand segment under a store key."""
        return self.store.register(key, value)

    def evict(self, key: str) -> bool:
        return self.store.evict(key)

    def _adhoc_handle(self, value) -> tuple[str, MatrixHandle]:
        key = f"__adhoc_{next(_ADHOC_KEYS)}"
        return key, self.store.register(key, value)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def symbolic(self, a_key: str, b_key: str, mask_key: str | None,
                 mask: Mask, out_shape, algorithm: str,
                 weights: np.ndarray | None = None,
                 deadline=None) -> np.ndarray:
        """Sharded symbolic pass: exact per-row output sizes (cold path)."""
        a_h = self.store.handle(a_key)
        b_h = self.store.handle(b_key)
        m_h = self.store.handle(mask_key) if mask_key is not None else None
        ranges = split_rows(out_shape[0], self.nshards, weights)
        if not ranges:
            return np.zeros(0, dtype=INDEX_DTYPE)
        # when the caller is tracing, workers collect their own spans and
        # ship them back with the result for merging into the request trace
        rec = current_record()
        fault = wire_format(self.faults.check("shard.symbolic")
                            if self.faults else None)
        tasks = [(a_h, b_h, m_h, mask.complemented, tuple(out_shape),
                  algorithm, lo, hi, rec is not None,
                  fault if i == 0 else None)
                 for i, (lo, hi) in enumerate(ranges)]
        t0 = time.perf_counter()
        with span("shard.scatter", phase="symbolic", nshards=len(tasks),
                  kernel=algorithm) as scatter:
            results = self._scatter(worker_mod.symbolic_task, tasks,
                                    deadline=deadline)
        t1 = time.perf_counter()
        if self._scatter_observer is not None:
            # span measurement when tracing (metric == trace), our own
            # perf_counter pair otherwise
            self._scatter_observer(
                scatter.seconds if scatter is not None else t1 - t0,
                "symbolic", rec.trace_id if rec is not None else None)
        self.tasks += len(tasks)
        parts = [sizes for sizes, _ in results]
        if rec is not None:
            for _, payload in results:
                if payload:
                    rec.merge(payload, parent_id=(scatter.span_id
                                                  if scatter else None))
        return np.concatenate(parts).astype(INDEX_DTYPE, copy=False)

    def multiply(self, a_key: str, b_key: str, mask_key: str | None,
                 mask: Mask, plan: SymbolicPlan, semiring: Semiring, *,
                 plan_cache_key: tuple | None = None,
                 weights: np.ndarray | None = None,
                 deadline=None) -> CSRMatrix:
        """Execute one two-phase product across the shard pool.

        ``plan`` must carry row sizes (the engine always has them by numeric
        time); ``plan_cache_key`` keys the partition memo so warm serving
        splits each plan exactly once.
        """
        if plan.row_sizes is None:
            raise ShardError("sharded numeric execution needs a two-phase "
                             "plan with row sizes")
        if not self.eligible(plan.algorithm, semiring):
            raise ShardError(
                f"algorithm {plan.algorithm!r} / semiring {semiring.name!r} "
                f"cannot run sharded (needs numeric_rows_into and a "
                f"registered semiring)"
            )
        a_h = self.store.handle(a_key)
        b_h = self.store.handle(b_key)
        m_h = self.store.handle(mask_key) if mask_key is not None else None
        out_shape = plan.shape
        nrows = out_shape[0]
        nnz = plan.nnz
        if nnz == 0 or nrows == 0:
            indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
            self.products += 1
            return CSRMatrix(indptr, np.empty(0, dtype=INDEX_DTYPE),
                             np.empty(0, dtype=np.float64), out_shape,
                             check=False)

        shard_plans = self.planner.split(plan, key=plan_cache_key,
                                         weights=weights)
        out_handle, out_seg = acquire_output(self.segment_pool, nrows, nnz)
        indptr, cols, vals = output_arrays(out_handle, out_seg)
        # the shared indptr comes from *this* plan's row sizes, not the
        # memoized shard plans: the memo may only reuse partition
        # boundaries, or a poisoned cache entry with the right key could
        # smuggle stale offsets past the kernels' size validation
        indptr[0] = 0
        np.cumsum(plan.row_sizes, out=indptr[1:])
        rec = current_record()
        try:
            # one fault check per dispatch, fired spec on the first task
            # only (shard.attach shares the seam: the worker applies the
            # spec before attaching, modelling an attach-time failure)
            fired = None
            if self.faults:
                fired = (self.faults.check("shard.numeric")
                         or self.faults.check("shard.attach"))
            fault = wire_format(fired)
            tasks = [(a_h, b_h, m_h, mask.complemented, tuple(out_shape),
                      plan.algorithm, semiring.name, sp.row_lo, sp.row_hi,
                      out_handle, rec is not None,
                      fault if i == 0 else None)
                     for i, sp in enumerate(shard_plans)]
            t0 = time.perf_counter()
            with span("shard.scatter", phase="numeric", nshards=len(tasks),
                      kernel=plan.algorithm) as scatter:
                results = self._scatter(worker_mod.numeric_task, tasks,
                                        deadline=deadline)
            t1 = time.perf_counter()
        except BaseException:
            # worker failure (stale plan, kernel error, dead pool): the
            # output segment must not outlive the request it belonged to —
            # and it must NOT go back to the pool, because an abandoned
            # scatter's workers may still be writing these pages (recycling
            # them under the next request would corrupt its output)
            del indptr, cols, vals
            self.store.registry.unlink(out_handle.name)
            raise
        self.tasks += len(tasks)
        self.products += 1
        trace_id = rec.trace_id if rec is not None else None
        if self._scatter_observer is not None:
            self._scatter_observer(
                scatter.seconds if scatter is not None else t1 - t0,
                "numeric", trace_id)
        if self._chunk_observer is not None:
            # workers time their chunks unconditionally; feeding the sink
            # parent-side keeps repro_chunk_seconds populated with tracing
            # off (the engine used to harvest these from merged spans)
            for _, _, chunk_secs in results:
                for secs in chunk_secs:
                    self._chunk_observer(secs, plan.algorithm, "numeric",
                                         trace_id)
        if rec is not None:
            # fold the workers' span payloads into the request trace,
            # nesting them under the scatter span that dispatched them
            for _, payload, _ in results:
                if payload:
                    rec.merge(payload, parent_id=(scatter.span_id
                                                  if scatter else None))

        # hand the mapping's lifetime to the result arrays; when the last
        # one is collected the segment returns to the pool (name intact, so
        # the next same-class product's workers attach right back to it)
        # instead of being unlinked — the registry keeps tracking it, so
        # shutdown hygiene is unchanged
        adopt_arrays(out_seg, indptr, cols, vals,
                     on_release=self.segment_pool.release)
        return CSRMatrix(indptr, cols, vals, out_shape, check=False)


# --------------------------------------------------------------------- #
# one-shot functional face
# --------------------------------------------------------------------- #
def shard_masked_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    mask: Mask | CSRMatrix | None = None,
    *,
    algorithm: str = "auto",
    semiring: Semiring = PLUS_TIMES,
    phases: int = 2,
    nshards: int = 2,
    plan: SymbolicPlan | None = None,
    plan_sink: list | None = None,
    coordinator: ShardCoordinator | None = None,
    executor=None,
    direct_write: bool = True,
) -> CSRMatrix:
    """One-shot sharded ``C = M ⊙ (A·B)`` — the ``backend="shard"`` face of
    :func:`repro.parallel.runner.parallel_masked_spgemm`.

    Shares the operands, runs the (sharded) symbolic pass when no plan is
    supplied, executes the numeric pass across the pool, and tears the
    transient coordinator down. Requests the shard layer cannot take
    (one-phase, non-direct-write kernels, unregistered semirings, no shared
    memory) fall back to the in-process runner — graceful degradation, same
    results. ``executor`` and ``direct_write`` exist *for* that fallback
    (forwarded untouched, so a degraded ``backend="shard"`` call is never
    slower than ``backend="local"`` would have been); the sharded path
    itself uses neither.
    """
    out_shape = check_multiplicable(A.shape, B.shape)
    if mask is None:
        mask = Mask.full(out_shape)
    elif isinstance(mask, CSRMatrix):
        mask = Mask.from_matrix(mask)
    mask.check_output_shape(out_shape)
    algorithm = algorithm.lower()
    if plan is not None:
        plan.check_output_shape(out_shape)
        if algorithm not in ("auto", plan.algorithm):
            raise AlgorithmError(
                f"plan was built for algorithm {plan.algorithm!r}, "
                f"got algorithm={algorithm!r}"
            )
        algorithm = plan.algorithm
    elif algorithm == "auto":
        algorithm = registry.auto_select(A, B, mask, semiring=semiring)

    degrade = (phases != 2
               or not ShardCoordinator.eligible(algorithm, semiring)
               or not shared_memory_available())
    if degrade:
        from ..parallel.runner import parallel_masked_spgemm

        return parallel_masked_spgemm(
            A, B, mask, algorithm=algorithm, semiring=semiring,
            phases=phases, executor=executor, plan=plan,
            plan_sink=plan_sink, direct_write=direct_write)

    own = coordinator is None
    coord = coordinator if coordinator is not None \
        else ShardCoordinator(nshards)
    shared_keys: list[str] = []
    try:
        a_key, _ = coord._adhoc_handle(A)
        shared_keys.append(a_key)
        if B is A:
            b_key = a_key
        else:
            b_key, _ = coord._adhoc_handle(B)
            shared_keys.append(b_key)
        mask_key = None
        # the "full" mask (empty pattern, complemented) needs no segment —
        # workers rebuild it locally from the shape
        if mask.nnz or not mask.complemented:
            mask_key, _ = coord._adhoc_handle(mask)
            shared_keys.append(mask_key)
        if plan is None or plan.row_sizes is None:
            row_sizes = coord.symbolic(a_key, b_key, mask_key, mask,
                                       out_shape, algorithm)
            plan = SymbolicPlan(algorithm=algorithm, phases=2,
                                shape=out_shape, row_sizes=row_sizes)
            if plan_sink is not None:
                plan_sink.append(plan)
        # the result adopts its output segment's mapping, so tearing the
        # transient coordinator down below only unlinks the *name* — the
        # pages live until the result is garbage collected
        return coord.multiply(a_key, b_key, mask_key, mask, plan, semiring)
    finally:
        if own:
            coord.close()
        else:
            for key in shared_keys:
                coord.evict(key)
