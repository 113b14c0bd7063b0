"""The execution engine: stateful masked-SpGEMM with plan and result caching.

``Engine`` turns the one-shot :func:`repro.core.masked_spgemm` call into a
service: operands live in a :class:`~repro.service.store.MatrixStore`,
symbolic plans live in a :class:`~repro.service.plan.PlanCache`, full numeric
results (optionally) in a :class:`~repro.service.result_cache.ResultCache`,
and every product goes through :meth:`Engine.submit` (store-keyed requests)
or :meth:`Engine.multiply` (ad-hoc operands, used by the iterative
algorithms).

Execution of one request:

1. resolve operands and fingerprint their patterns (store entries memoize
   the hash; ad-hoc operands pay it per call — O(nnz), far below a product);
2. when a result cache is attached (store-keyed requests only), probe it
   under the plan key extended with both operands' *value* hashes. Hit →
   return the memoized CSR output, bit-identical by construction, no plan
   lookup, no numeric pass;
3. look up the plan under the full structural key. Warm hit → skip both
   ``auto_select`` and (for two-phase) the entire symbolic pass by handing
   the cached plan to ``masked_spgemm(plan=...)``. Miss →
   :func:`repro.core.plan.build_plan` once, cache, proceed;
4. numeric pass (optionally row-parallel via the engine's executor). Warm
   two-phase requests on a chunk-fused kernel take the *direct-write* path
   (``RequestStats.direct_write``): the plan's row sizes preallocate the
   final CSR arrays and chunks scatter into disjoint slices with zero
   stitch copies, the computed sizes validated against the plan so a stale
   plan fails loudly instead of silently corrupting output.

Warm plans can also outlive the process: :meth:`Engine.save_plans` persists
the plan cache through :class:`~repro.service.plan.PlanStore` and
:meth:`Engine.load_plans` restores it, so a restarted service starts with
every previously-seen pattern already planned (``python -m repro serve
--plans``).

The engine is thread-safe (one lock around store/cache metadata; numeric
work runs outside it), which is what lets each
:class:`~repro.service.server.AsyncServer` worker run its own request
concurrently with the others. Plan builds are not single-flight: two
threads that miss the same plan key at once both run the symbolic pass,
the plans are bit-identical, and the cache keeps one.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

import numpy as np

from ..core import masked_spgemm
from ..core.plan import SymbolicPlan, build_plan, splice_plan
from ..delta import DeltaBatch, DeltaOutcome
from ..errors import AlgorithmError, ShapeError
from ..core.registry import BASELINE_KEYS, NATIVE_BASE
from ..mask import Mask
from ..native import warmup as native_warmup
from ..obs import FlightRecorder, MetricsRegistry, SLOEvaluator, Tracer, span
from ..obs.metrics import CHUNK_BUCKETS, chunk_observer
from ..resilience import (DeadlineExceeded, FaultPlan, InjectedFault,
                          apply_fault, resolve_deadline)
from ..semiring import Semiring
from ..semiring.standard import by_name as semiring_by_name
from ..sparse.csr import CSRMatrix
from ..core import registry as kernel_registry
from ..sparse.ops import (pattern_fingerprint, rows_affected_through,
                          rows_touching, splice_result_rows,
                          value_fingerprint)
from ..validation import INDEX_DTYPE
from .plan import PlanCache, PlanStore, plan_key
from .requests import DeltaRequest, Request, RequestStats, Response
from .result_cache import ResultCache, result_key
from .store import MatrixStore, StoreError


#: coarse execution tiers a numeric pass can run on, in preference order
KERNEL_TIERS = ("native", "fused", "loop", "baseline")


def kernel_tier(algorithm: str) -> str:
    """Map a resolved kernel key to the coarse execution tier it runs on:
    ``native`` (compiled msa-native/hash-native), ``loop`` (the per-row
    reference rung), ``baseline`` (whole-matrix baselines), else ``fused``
    (the vectorised numpy kernels). The engine stamps the tier of the
    kernel that *actually executed* — not the one the plan named — onto
    each request, so degraded-to-fused traffic is distinguishable in
    ``repro_kernel_requests_total`` and the ``serve --smoke`` report."""
    key = algorithm.lower()
    if key.endswith("-native"):
        return "native"
    if key.endswith("-loop"):
        return "loop"
    if key in BASELINE_KEYS:
        return "baseline"
    return "fused"


class EngineStats:
    """Aggregate engine telemetry, **derived from** the metrics registry.

    Historically this was a parallel set of plain counters updated next to
    the registry; now the registry (``repro_engine_requests_total{tier}``,
    ``repro_engine_events_total{event}``, ``repro_request_seconds{tier}``,
    ``repro_phase_seconds{phase}``) is the single source of truth and every
    attribute here is a read-only view over it, so ``/metrics`` and
    ``engine.stats`` can never disagree. The serving **tier** of a request
    is where it was answered: ``result`` (whole numeric output from the
    result cache), ``warm`` (plan-cache hit), ``cold`` (plan built), or
    ``unplanned`` (baselines — no symbolic phase, excluded from plan
    hit/miss accounting).

    The latency deques are the one thing kept *outside* the registry:
    histograms give bucketed distributions for scraping, while percentile
    reporting (``repro serve`` summaries, bench faces) wants the raw recent
    window. Bounded, same rationale as before.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_engine_requests_total",
            "requests by serving tier (result/warm/cold/unplanned)",
            labels=("tier",))
        self._events = self.registry.counter(
            "repro_engine_events_total",
            "request-path events (symbolic_skipped/direct_write)",
            labels=("event",))
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "end-to-end engine request latency by serving tier",
            labels=("tier",))
        self._phase_seconds = self.registry.histogram(
            "repro_phase_seconds",
            "engine time by phase (plan = auto-select + symbolic)",
            labels=("phase",))
        self._kernel_tier = self.registry.counter(
            "repro_kernel_requests_total",
            "numeric passes by the kernel tier that actually executed "
            "(native/fused/loop/baseline); degraded requests count under "
            "the tier that served them, not the one the plan named",
            labels=("tier",))
        #: bounded windows (a long-lived service must not grow telemetry
        #: without limit); the registry covers the full lifetime
        self.cold_latencies: deque = deque(maxlen=4096)
        self.warm_latencies: deque = deque(maxlen=4096)
        self.result_latencies: deque = deque(maxlen=4096)

    # -- registry-derived views ----------------------------------------- #
    @property
    def requests(self) -> int:
        return int(self._requests.total())

    @property
    def plan_hits(self) -> int:
        return int(self._requests.value(tier="warm"))

    @property
    def plan_misses(self) -> int:
        return int(self._requests.value(tier="cold"))

    @property
    def unplanned(self) -> int:
        """Baseline requests — never planned, excluded from hit/miss."""
        return int(self._requests.value(tier="unplanned"))

    @property
    def result_hits(self) -> int:
        """Requests served whole from the result cache (no plan lookup, no
        numeric pass) — also excluded from plan hit/miss accounting."""
        return int(self._requests.value(tier="result"))

    @property
    def symbolic_skipped(self) -> int:
        return int(self._events.value(event="symbolic_skipped"))

    @property
    def plan_seconds(self) -> float:
        return self._phase_seconds.sum(phase="plan")

    @property
    def numeric_seconds(self) -> float:
        return self._phase_seconds.sum(phase="numeric")

    @property
    def plan_hit_rate(self) -> float:
        from ..bench.metrics import hit_rate

        return hit_rate(self.plan_hits, self.plan_misses)

    @property
    def kernel_tiers(self) -> dict:
        """Non-zero ``repro_kernel_requests_total`` values by tier — which
        kernel tier actually served the numeric passes (result-cache hits
        ran no kernel and are excluded)."""
        counts = {t: int(self._kernel_tier.value(tier=t))
                  for t in KERNEL_TIERS}
        return {t: c for t, c in counts.items() if c}

    def record(self, stats: RequestStats) -> None:
        if stats.result_cache_hit:
            # the plan cache was never consulted; keep its accounting clean
            self._requests.inc(tier="result")
            self._request_seconds.observe(stats.total_seconds, tier="result")
            self.result_latencies.append(stats.total_seconds)
            return
        if not stats.planned:
            tier = "unplanned"  # baselines can never warm; keep them out
        elif stats.plan_cache_hit:
            tier = "warm"
            self.warm_latencies.append(stats.total_seconds)
        else:
            tier = "cold"
            self.cold_latencies.append(stats.total_seconds)
        self._requests.inc(tier=tier)
        self._request_seconds.observe(stats.total_seconds, tier=tier)
        if stats.kernel_tier:
            self._kernel_tier.inc(tier=stats.kernel_tier)
        if stats.symbolic_skipped:
            self._events.inc(event="symbolic_skipped")
        if stats.direct_write:
            self._events.inc(event="direct_write")
        if stats.plan_seconds:
            self._phase_seconds.observe(stats.plan_seconds, phase="plan")
        self._phase_seconds.observe(stats.numeric_seconds, phase="numeric")


class Engine:
    """Batched masked-SpGEMM execution engine with symbolic plan caching.

    Parameters
    ----------
    store, plan_cache : pre-built components (defaults constructed from the
        keyword knobs below).
    budget_bytes : operand-memory budget for the default store (LRU evicted).
    plan_capacity : max cached plans for the default cache.
    result_cache : optional :class:`ResultCache` memoizing whole numeric
        results for store-keyed requests (``result_cache_bytes`` builds a
        default-configured one). Off by default: ad-hoc/iterative traffic
        changes values every call, so only serving-style deployments should
        pay the per-request value hash.
    executor : optional :mod:`repro.parallel` executor used for the numeric
        pass of every request (row parallelism *within* a product;
        :class:`~repro.service.server.AsyncServer` workers add parallelism
        *across* requests).
    result_admit_flops_per_byte : admission threshold for the default result
        cache (see :class:`ResultCache`): results estimated to save fewer
        flops per cached byte are not admitted. 0 admits everything.
    metrics : optional shared :class:`~repro.obs.MetricsRegistry` (a private
        one by default). The engine's own counters, both caches' counters,
        and (via :class:`~repro.service.server.AsyncServer`) the server's
        all land in this registry — one ``/metrics`` page per engine.
    tracer : optional shared :class:`~repro.obs.Tracer`; ``tracing`` builds
        the default one enabled/disabled. Every request executes under its
        own trace record (id on ``RequestStats.trace_id``) holding the
        phase spans; disabled tracing reduces every ``span()`` on the path
        to a no-op contextvar read (the <3% overhead gate in
        ``benchmarks/bench_obs_overhead.py`` measures enabled vs that).
    faults : :class:`~repro.resilience.FaultPlan` chaos seam — defaults to
        ``FaultPlan.from_env()`` (the ``REPRO_FAULTS`` variable), so the CI
        chaos leg can inject kernel errors into an unmodified server. A
        failed numeric pass degrades down the in-process kernel ladder —
        native → fused → per-row loop — every rung bit-identical.
    slos : optional list of :class:`~repro.obs.SLObjective` (what ``serve
        --slo p99=50ms:0.99`` parses). When given, the engine owns an
        :class:`~repro.obs.SLOEvaluator` (``engine.slo``) exporting
        ``repro_slo_*`` burn-rate families over this registry and backing
        the sidecar's ``/slo`` endpoint.
    flight : optional :class:`~repro.obs.FlightRecorder`; the engine builds
        its own by default (ring of request summaries + debug-bundle
        capture whenever a resilience edge fires — degrade, deadline
        shed), wired with a context probe reporting live engine state into
        each bundle.
    """

    def __init__(self, store: MatrixStore | None = None,
                 plan_cache: PlanCache | None = None, *,
                 budget_bytes: int | None = None,
                 plan_capacity: int = 256,
                 result_cache: ResultCache | None = None,
                 result_cache_bytes: int | None = None,
                 result_admit_flops_per_byte: float = 0.0,
                 executor=None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 tracing: bool = True,
                 faults: FaultPlan | None = None,
                 slos: list | None = None,
                 flight: FlightRecorder | None = None):
        self.store = store if store is not None else MatrixStore(budget_bytes)
        self.plans = plan_cache if plan_cache is not None else PlanCache(plan_capacity)
        if result_cache is None and result_cache_bytes is not None:
            result_cache = ResultCache(
                result_cache_bytes,
                min_flops_per_byte=result_admit_flops_per_byte)
        self.results = result_cache
        self.executor = executor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=tracing)
        self.stats = EngineStats(self.metrics)
        # single source of truth for cache accounting: both caches' counters
        # live in the engine registry (satellite of the obs PR)
        self.plans.bind_metrics(self.metrics)
        if self.results is not None:
            self.results.bind_metrics(self.metrics)
        self._chunk_seconds = self.metrics.histogram(
            "repro_chunk_seconds",
            "per-chunk kernel wall time (recorded at the runner call "
            "sites; populated with tracing on or off)",
            labels=("kernel", "phase"), buckets=CHUNK_BUCKETS)
        self._trace_seq = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        # resilience: chaos seam for the kernel degrade ladder
        self.faults = faults if faults is not None else FaultPlan.from_env()
        # diagnosis layer (PR 10): burn-rate SLOs over this registry, and a
        # flight recorder capturing debug bundles on resilience edges
        self.slo = (SLOEvaluator(self.metrics, list(slos),
                                 tracer=self.tracer)
                    if slos else None)
        self.flight = (flight if flight is not None else
                       FlightRecorder(registry=self.metrics,
                                      tracer=self.tracer,
                                      context=self._flight_context))
        self._degraded = self.metrics.counter(
            "repro_degraded_total",
            "tier downgrades from → to (results stay bit-identical)",
            labels=("from", "to"))
        self._deadline_total = self.metrics.counter(
            "repro_deadline_total",
            "requests shed by deadline, by enforcement stage",
            labels=("stage",))
        # delta serving (PR 8): mutation counters + dirty-row economics
        self._delta_total = self.metrics.counter(
            "repro_delta_total",
            "applied edge-delta batches by kind "
            "(value/pattern/mixed/noop)",
            labels=("kind",))
        self._delta_dirty_fraction = self.metrics.histogram(
            "repro_delta_dirty_fraction",
            "fraction of the mutated matrix's rows a pattern delta "
            "dirtied (the re-planned share)",
            buckets=(0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0))
        self._delta_plans = self.metrics.counter(
            "repro_delta_plans_total",
            "cached plans affected by pattern deltas, by outcome "
            "(spliced onto the new fingerprint / skipped: operands "
            "unresolvable from the store)",
            labels=("outcome",))
        self._delta_patched = self.metrics.counter(
            "repro_delta_results_patched_total",
            "cached numeric results carried across a pattern delta by "
            "recomputing only their dirty output rows")
        self._delta_stale = self.metrics.counter(
            "repro_delta_stale_total",
            "late result-cache writebacks refused by the store-version "
            "guard (a delta landed while the request executed)")
        # resolve + compile the native kernel tier off the request path
        # (memoized: only the first engine in a process pays the JIT/cc
        # cost) and record it
        native_warmup(metrics=self.metrics)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Mark the engine closed, so :meth:`ready` reports it out of
        rotation. Idempotent; the executor is caller-owned and stays
        open."""
        self._closed = True

    def ready(self) -> bool:
        """Readiness probe backing ``/readyz``: can this engine serve?

        A degraded kernel tier still counts as ready — requests serve
        bit-identically from the lower rungs; only a closed engine refuses
        work."""
        return not self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # store facade
    # ------------------------------------------------------------------ #
    def register(self, key: str, value: CSRMatrix | Mask, *,
                 pin: bool = False) -> None:
        """Register (or replace) an operand/mask under ``key``.

        Plans need no explicit invalidation: they are keyed by pattern
        fingerprint, so a replacement with the same pattern keeps hitting
        and a pattern change misses by construction.
        """
        with self._lock:
            entry = self.store.register(key, value, pin=pin)
        # warm the memoized hashes now, outside the lock: first-touch
        # O(nnz) hashing on the request path would otherwise run under the
        # lock and stall every concurrent submitter (and, through
        # Engine.entry, the async server's admission loop)
        entry.fingerprint
        if self.results is not None:
            entry.value_fingerprint

    def evict(self, key: str) -> bool:
        with self._lock:
            return self.store.evict(key)

    def entry(self, key: str):
        """Thread-safe store-entry resolution (marks the entry MRU).

        External callers must come through here rather than touching
        ``engine.store`` directly: the store's LRU bookkeeping is a
        pop-then-reinsert that is only safe under the engine lock.
        """
        with self._lock:
            return self.store.entry(key)

    # ------------------------------------------------------------------ #
    # deltas (streaming-graph mutation; see repro.delta)
    # ------------------------------------------------------------------ #
    def submit_delta(self, request: DeltaRequest) -> DeltaOutcome:
        """Apply a store-keyed :class:`DeltaRequest` (the JSON wire form)."""
        return self.apply_delta(request.key, request.to_batch())

    def apply_delta(self, key: str, batch: DeltaBatch) -> DeltaOutcome:
        """Mutate the matrix registered under ``key`` by one edge-delta
        batch, keeping warm-path economics across the mutation.

        * **value-only** batches (updates / inserts landing on stored
          coordinates): the store entry is swapped copy-on-write with the
          *pattern fingerprint carried forward* — every cached plan keeps
          hitting — and only the value fingerprint is recomputed;
        * **pattern** batches: the exact dirty row set comes back from
          :meth:`DeltaBatch.apply`; every cached plan whose key names the
          old fingerprint is re-keyed onto the new one via
          :func:`~repro.core.plan.splice_plan`, touching only the dirty
          output rows (for the B-operand slot, the rows whose mask admits
          a changed B entry they read). This is **one pass** over the
          dirty rows: when the plan's pre-delta product is resident in the
          result cache, the plan's kernel recomputes the dirty rows, the
          block is spliced into the cached product, and the block's row
          sizes become the spliced plan's sizes. The symbolic pass runs over the dirty rows only
          where nothing is patched: no result cache, a non-resident
          result, or a ``mixed`` batch (whose value updates touch rows
          outside the dirty set, so its results are invalidated instead);
        * in both cases, result-cache entries that read the old content are
          invalidated by fingerprint scan, and the entry's version bump
          arms the writeback guard against in-flight requests.

        Concurrent deltas to the *same* key must be serialized by the
        caller (:meth:`AsyncServer.apply_delta` orders them against each
        other and against in-flight reads); concurrent deltas to different
        keys and concurrent submits are safe.
        """
        t_start = time.perf_counter()
        entry = self.entry(key)
        value = entry.value
        if not isinstance(value, CSRMatrix):
            raise StoreError(
                f"deltas apply to CSR matrices; {key!r} holds a "
                f"{type(value).__name__}")
        old_pattern_fp = entry.fingerprint
        old_value_fp = entry.value_fingerprint
        with span("delta.apply", key=key, edges=len(batch)):
            outcome = batch.apply(value)
        if outcome.kind == "noop":
            self._delta_total.inc(kind="noop")
            return DeltaOutcome(key=key, kind="noop",
                                pattern_fingerprint=old_pattern_fp,
                                value_fingerprint=old_value_fp,
                                seconds=time.perf_counter() - t_start)
        new = outcome.matrix
        # re-fingerprint incrementally, outside the lock: the pattern hash
        # is carried forward when the pattern did not change
        new_pattern_fp = (pattern_fingerprint(new.indptr, new.indices,
                                              new.shape)
                          if outcome.pattern_changed else old_pattern_fp)
        new_value_fp = value_fingerprint(new.data)
        splices: list[tuple] = []
        patches: list[tuple] = []
        skipped = 0
        if outcome.pattern_changed and new_pattern_fp != old_pattern_fp:
            # only a pure-pattern batch can patch cached results: a mixed
            # batch's value updates touch rows outside the dirty set
            patch_values = ((old_value_fp, new_value_fp)
                            if self.results is not None
                            and outcome.kind == "pattern" else None)
            splices, patches, skipped = self._splice_plans(
                old_pattern_fp, new_pattern_fp, new, outcome.dirty_rows,
                outcome.changed_keys, patch_values)
        invalidated = 0
        with self._lock:
            self.store.swap(key, new, fingerprint=new_pattern_fp,
                            value_fingerprint=new_value_fp)
            for _, new_key, plan in splices:
                self.plans.put(new_key, plan)
            if self.results is not None:
                stale_fps = {old_value_fp}
                if outcome.pattern_changed:
                    stale_fps.add(old_pattern_fp)
                invalidated = self.results.invalidate_fingerprints(stale_fps)
                # patched entries go in *after* the invalidation scan: their
                # keys name only post-delta fingerprints of the mutated
                # matrix, but an unrelated operand may share a value hash
                # with the old content (e.g. two all-ones patterns)
                for rkey, matrix, alg in patches:
                    self.results.put(rkey, matrix, alg)
        dirty = int(outcome.dirty_rows.size)
        frac = dirty / max(value.nrows, 1)
        self._delta_total.inc(kind=outcome.kind)
        if outcome.pattern_changed:
            self._delta_dirty_fraction.observe(frac)
        if splices:
            self._delta_plans.inc(len(splices), outcome="spliced")
        if skipped:
            self._delta_plans.inc(skipped, outcome="skipped")
        if patches:
            self._delta_patched.inc(len(patches))
        return DeltaOutcome(key=key, kind=outcome.kind, dirty_rows=dirty,
                            dirty_fraction=frac,
                            plans_spliced=len(splices), plans_skipped=skipped,
                            results_invalidated=invalidated,
                            results_patched=len(patches),
                            pattern_fingerprint=new_pattern_fp,
                            value_fingerprint=new_value_fp,
                            seconds=time.perf_counter() - t_start)

    def _splice_plans(self, old_fp: str, new_fp: str, new: CSRMatrix,
                      dirty_rows, changed_keys,
                      patch_values: tuple[str, str] | None
                      ) -> tuple[list, list, int]:
        """Re-key every cached plan naming ``old_fp`` onto ``new_fp`` in one
        pass over each plan's dirty output rows.

        Per plan: the dirty output rows are derived from the delta, then

        * when ``patch_values`` (the mutated matrix's old and new value
          fingerprints) is given and the plan's pre-delta product is
          resident in the result cache, the dirty rows are recomputed with
          the plan's kernel and spliced into the cached product (see
          :meth:`_patch_result`); that block's row sizes are also the
          spliced plan's new sizes, so no symbolic pass runs;
        * otherwise :func:`splice_plan` runs the symbolic pass over only
          the dirty rows.

        The ``delta.splice`` span records which one ran
        (``sizes="patch"`` / ``sizes="symbolic"``). Old-key entries are
        left in place: the old pattern may still exist under another store
        key, and content-addressed keys make stale entries harmless (they
        age out of the LRU). Returns ``(splices, patches, skipped)``: each
        splice is ``(old_key, new_key, plan)`` and each patch
        ``(result_key, matrix, algorithm)``."""
        with self._lock:
            plan_items = self.plans.items()
            store_items = self.store.entries()
        # fingerprint → current value map for resolving the *other* operand
        # slots of affected plans (fingerprints are memoized on entries;
        # first-touch hashing here is idempotent, same as submit()); the
        # value-fingerprint map is consistent with the resolved values, so
        # result-cache lookups built from it name the same content
        fp_map: dict[str, CSRMatrix | Mask] = {}
        vfp_map: dict[str, str] = {}
        for _, e in store_items:
            if e.fingerprint not in fp_map:
                fp_map[e.fingerprint] = e.value
                if patch_values is not None:
                    vfp_map[e.fingerprint] = e.value_fingerprint
        fp_map[new_fp] = new
        splices: list[tuple] = []
        patches: list[tuple] = []
        skipped = 0
        for pkey, plan in plan_items:
            a_fp, b_fp, m_fp = pkey[0], pkey[1], pkey[2]
            if old_fp not in (a_fp, b_fp, m_fp):
                continue
            sub = lambda fp: new_fp if fp == old_fp else fp
            new_key = (sub(a_fp), sub(b_fp), sub(m_fp)) + pkey[3:]
            A = fp_map.get(sub(a_fp))
            B = fp_map.get(sub(b_fp))
            M = fp_map.get(sub(m_fp))
            if (not isinstance(A, CSRMatrix) or not isinstance(B, CSRMatrix)
                    or M is None):
                skipped += 1
                continue
            mask = M if isinstance(M, Mask) else Mask.from_matrix(M)
            complemented = pkey[3]
            if complemented:
                mask = mask.complement()
            parts = []
            direct = None
            if a_fp == old_fp or m_fp == old_fp:
                # left-operand / mask rows map 1:1 onto output rows
                direct = np.asarray(dirty_rows, dtype=INDEX_DTYPE)
                parts.append(direct)
            if b_fp == old_fp:
                if complemented:
                    # conservative: any output row reading a dirty B row
                    # (the sharpened test below assumes the mask pattern
                    # *admits*, which a complemented mask inverts)
                    parts.append(rows_touching(A, dirty_rows))
                else:
                    # sharpened B-side propagation: a changed B entry (j, c)
                    # affects output row i only when A[i, j] is stored AND
                    # the mask admits c in row i — for self-products this is
                    # each changed edge's common-neighbor set, not the whole
                    # neighborhood; rows already dirty 1:1 are not expanded
                    parts.append(rows_affected_through(
                        A, mask.indptr, mask.indices, changed_keys,
                        new.ncols, skip=direct))
            dirty = (np.unique(np.concatenate(parts)) if parts
                     else np.empty(0, dtype=INDEX_DTYPE))
            patch, sizes = (
                self._patch_result(pkey, new_key, plan.algorithm, dirty, A,
                                   B, mask, old_fp, vfp_map, patch_values)
                if patch_values is not None else (None, None))
            try:
                with span("delta.splice", rows=int(dirty.size),
                          algorithm=plan.algorithm,
                          sizes="symbolic" if patch is None else "patch"):
                    spliced = splice_plan(plan, A, B, mask, dirty, sizes)
            except (AlgorithmError, ShapeError):
                # shape drift (an operand re-registered at another shape
                # shares no fingerprints, but stay defensive): drop, a cold
                # build will serve the new key
                skipped += 1
                continue
            splices.append((pkey, new_key, spliced))
            if patch is not None:
                patches.append(patch)
        return splices, patches, skipped

    def _patch_result(self, pkey: tuple, new_key: tuple, algorithm: str,
                      dirty: np.ndarray, A: CSRMatrix, B: CSRMatrix,
                      mask: Mask, old_fp: str, vfp_map: dict,
                      patch_values: tuple[str, str]) -> tuple:
        """Carry one cached numeric result across a pure-pattern delta.

        When the plan's pre-delta product is resident in the result cache,
        recompute *only the dirty output rows* with the plan's kernel and
        splice them into the cached matrix
        (:func:`~repro.sparse.ops.splice_result_rows`) — the first
        post-delta request then serves from the result tier instead of
        re-running the full numeric pass. Sound because the dirty set
        covers every output row whose pattern **or values** can differ: the
        1:1 slots map changed rows directly, and the B-side candidate test
        admits exactly the (row, col) cells a changed B entry can reach
        through the mask. Returns ``(patch, sizes)``: ``patch`` is
        ``(result_key, matrix, algorithm)`` and ``sizes`` the dirty rows'
        new output sizes (None for an empty dirty set); both are None when
        nothing is resident or the kernel refused.
        """
        old_value_fp, new_value_fp = patch_values
        old_a_vfp = (old_value_fp if pkey[0] == old_fp
                     else vfp_map.get(pkey[0]))
        old_b_vfp = (old_value_fp if pkey[1] == old_fp
                     else vfp_map.get(pkey[1]))
        if old_a_vfp is None or old_b_vfp is None:
            return None, None
        old_rkey = result_key(pkey, old_a_vfp, old_b_vfp)
        # probe first so a non-resident result does not count as a miss
        cached = (self.results.get(old_rkey) if old_rkey in self.results
                  else None)
        if cached is None:
            return None, None
        new_a_vfp = new_value_fp if pkey[0] == old_fp else old_a_vfp
        new_b_vfp = new_value_fp if pkey[1] == old_fp else old_b_vfp
        new_rkey = result_key(new_key, new_a_vfp, new_b_vfp)
        if not dirty.size:
            # empty dirty set: the product is bit-identical, only its key
            # moves
            return (new_rkey, cached.matrix, cached.algorithm), None
        try:
            spec = kernel_registry.get_spec(algorithm)
            semiring = semiring_by_name(pkey[6])
            with span("delta.patch", rows=int(dirty.size),
                      algorithm=algorithm):
                block = spec.numeric(A, B, mask, semiring, dirty)
                patched = splice_result_rows(
                    cached.matrix, dirty, block.sizes, block.cols,
                    block.vals)
        except (AlgorithmError, ShapeError, KeyError):
            return None, None
        return (new_rkey, patched, cached.algorithm), block.sizes

    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> Response:
        """Execute one store-keyed request."""
        with self._lock:
            a_entry = self.store.entry(request.a)
            b_entry = self.store.entry(request.b)
            mask_entry = (self.store.entry(request.mask)
                          if request.mask is not None else None)
        # fingerprints are read outside the lock: register() pre-warms them,
        # but a first touch here (entries registered via a bare store) is
        # O(nnz) hashing — memoized on the entry, so a racing duplicate
        # compute is idempotent and harmless
        a_fp = a_entry.fingerprint
        b_fp = b_entry.fingerprint
        # value hashes are only worth computing when a result cache is
        # attached; store entries memoize them per registration
        value_fps = ((a_entry.value_fingerprint, b_entry.value_fingerprint)
                     if self.results is not None else None)
        A, B = a_entry.value, b_entry.value
        if not isinstance(A, CSRMatrix) or not isinstance(B, CSRMatrix):
            from .store import StoreError

            raise StoreError(
                f"operands {request.a!r}/{request.b!r} must be CSR matrices "
                f"(masks can only appear in the mask slot)"
            )
        mask = self._resolve_mask(mask_entry.value if mask_entry else None,
                                  (A.nrows, B.ncols), request.complemented)
        mask_fp = (mask_entry.fingerprint if mask_entry
                   else pattern_fingerprint(mask.indptr, mask.indices, mask.shape))
        # store-version snapshot for the writeback guard: entry versions are
        # immutable per entry object (deltas swap in a fresh entry), so the
        # snapshot pins exactly the operand state this request resolved
        versions = ((request.a, a_entry.version), (request.b, b_entry.version))
        if mask_entry is not None:
            versions += ((request.mask, mask_entry.version),)
        return self._execute(A, B, mask, a_fp, b_fp, mask_fp,
                             algorithm=request.algorithm,
                             phases=request.phases,
                             semiring=semiring_by_name(request.semiring),
                             tag=request.tag, request=request,
                             value_fps=value_fps, versions=versions,
                             plan_free=request.plan_free)

    def multiply(self, A: CSRMatrix, B: CSRMatrix,
                 mask: Mask | CSRMatrix | None = None, *,
                 algorithm: str = "auto", phases: int = 2,
                 semiring: Semiring | str = "plus_times",
                 complemented: bool = False, tag: str = "",
                 plan_free: bool = False) -> Response:
        """Execute an ad-hoc product through the plan cache (no store keys).

        This is the entry point the iterative algorithms use: operands are
        fresh objects every iteration, but iterations whose *patterns*
        repeat (k-truss re-queried on the same graph, MCL's stabilized
        support) still hit cached plans.
        """
        if isinstance(semiring, str):
            semiring = semiring_by_name(semiring)
        out_shape = (A.nrows, B.ncols)
        mask_obj = mask
        mask = self._resolve_mask(mask, out_shape, complemented)
        a_fp = pattern_fingerprint(A.indptr, A.indices, A.shape)
        b_fp = (a_fp if B is A
                else pattern_fingerprint(B.indptr, B.indices, B.shape))
        # iterative algorithms often pass the same matrix as operand and
        # mask (k-truss: C ⊙ (C·C)) — reuse its fingerprint instead of
        # re-hashing the pattern
        if mask_obj is A:
            mask_fp = a_fp
        elif mask_obj is B:
            mask_fp = b_fp
        else:
            mask_fp = pattern_fingerprint(mask.indptr, mask.indices,
                                          mask.shape)
        return self._execute(A, B, mask, a_fp, b_fp, mask_fp,
                             algorithm=algorithm, phases=phases,
                             semiring=semiring, tag=tag, request=None,
                             plan_free=plan_free)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_mask(mask, out_shape, complemented: bool) -> Mask:
        if mask is None:
            if complemented:
                # ¬(full mask) selects nothing — always-empty output; this
                # is a forgotten mask key, not a meaningful request
                raise AlgorithmError(
                    "complemented=True without a mask would mask out every "
                    "entry; provide the mask to complement"
                )
            mask = Mask.full(out_shape)
        elif isinstance(mask, CSRMatrix):
            mask = Mask.from_matrix(mask)
        if complemented:
            mask = mask.complement()
        return mask

    def _execute(self, A, B, mask, a_fp, b_fp, mask_fp, *, algorithm,
                 phases, semiring, tag, request,
                 value_fps: tuple[str, str] | None = None,
                 versions: tuple | None = None,
                 plan_free: bool = False) -> Response:
        trace_id = (f"r{next(self._trace_seq):06d}"
                    if self.tracer.enabled else "")
        with self.tracer.trace(trace_id, tag=tag, algorithm=algorithm,
                               phases=phases) as rec:
            with chunk_observer(self._observe_chunk):
                try:
                    resp = self._execute_traced(
                        A, B, mask, a_fp, b_fp, mask_fp, algorithm=algorithm,
                        phases=phases, semiring=semiring, tag=tag,
                        request=request, value_fps=value_fps,
                        trace_id=trace_id, versions=versions,
                        plan_free=plan_free)
                except DeadlineExceeded as exc:
                    self._deadline_total.inc(stage=exc.stage or "engine")
                    if rec is not None:
                        rec.attrs["outcome"] = "deadline"
                    self._flight_capture(
                        "deadline",
                        detail=f"stage={exc.stage or 'engine'} tag={tag}",
                        record=rec)
                    raise
                except Exception as exc:
                    if rec is not None:
                        rec.attrs["outcome"] = f"error:{type(exc).__name__}"
                    raise
            if rec is not None:
                rec.attrs["outcome"] = "ok"
                rec.attrs["tier"] = resp.stats.serving_tier
                if resp.stats.kernel_tier:
                    rec.attrs["kernel_tier"] = resp.stats.kernel_tier
            return resp

    # ------------------------------------------------------------------ #
    # call-site observation + flight capture
    # ------------------------------------------------------------------ #
    def _observe_chunk(self, seconds: float, kernel: str, phase: str,
                      trace_id: str | None = None) -> None:
        """Chunk-timing sink: installed per request via
        :func:`~repro.obs.metrics.chunk_observer` (the runner captures it
        on the submitting thread). The call site's own
        ``perf_counter`` pair feeds the histogram, so
        ``repro_chunk_seconds`` populates with tracing disabled and stays
        bit-identical to the span timing with it enabled."""
        if trace_id:
            self._chunk_seconds.observe_traced(seconds, trace_id,
                                               kernel=kernel, phase=phase)
        else:
            self._chunk_seconds.observe(seconds, kernel=kernel, phase=phase)

    def _note_degrade(self, frm: str, to: str, error: str = "") -> None:
        """Count a tier downgrade and flight-record it — every degrade is
        a resilience edge worth a debug bundle (rate-limited per reason)."""
        self._degraded.inc(**{"from": frm, "to": to})
        detail = f"{frm}->{to}" + (f" ({error})" if error else "")
        self._flight_capture("degrade", detail=detail)

    def _flight_capture(self, reason: str, detail: str = "",
                        record=None) -> None:
        if self.flight is not None:
            self.flight.capture(reason, detail=detail, record=record)

    def _flight_context(self) -> dict:
        """Live owner state snapshotted into every debug bundle."""
        return {"closed": self._closed}

    # ------------------------------------------------------------------ #
    # the numeric tier ladder: native → fused → loop kernels
    # ------------------------------------------------------------------ #
    def _inprocess_tiers(self, A, B, mask, plan, algorithm, phases,
                         semiring, deadline, stats=None) -> CSRMatrix:
        """The numeric pass and its degrade ladder: compiled native, then
        fused numpy, with the per-row ``msa-loop`` kernel as the last rung.

        The ladder exists because a cached :class:`SymbolicPlan`'s row
        sizes are *kernel-independent*: relabelling the plan replays the
        same masked product through a simpler kernel with the warm symbolic
        work intact — bit-identical output at every rung. A native-routed
        plan (``msa-native``/``hash-native``) first falls back to its fused
        base kernel (:data:`~repro.core.registry.NATIVE_BASE`), then the
        loop rung; the ``engine.kernel`` fault site is re-checked per rung
        so each injected fault drops exactly one rung. Only deliberate injections
        (:class:`InjectedFault`) and memory pressure degrade here; genuine
        kernel bugs stay loud, because silently papering over them would
        hide miscompares, not failures. The tier that actually executed is
        stamped onto ``stats.kernel_tier``.
        """
        if deadline is not None:
            deadline.check("engine", "numeric start")
        try:
            if self.faults is not None and plan is not None:
                apply_fault(self.faults.check("engine.kernel"))
            result = masked_spgemm(A, B, mask, algorithm=algorithm,
                                   semiring=semiring, phases=phases,
                                   executor=self.executor, plan=plan)
            if stats is not None:
                stats.kernel_tier = kernel_tier(
                    plan.algorithm if plan is not None else algorithm)
            return result
        except (InjectedFault, MemoryError) as exc:
            if plan is None:
                raise  # baselines have no plan to relabel for a lower rung
            base = NATIVE_BASE.get(plan.algorithm)
            if base is not None:
                # compiled rung failed: replay the plan on its fused base
                # kernel before resorting to the loop tier
                self._note_degrade("native", "fused",
                                   error=type(exc).__name__)
                with span("degrade", tier="fused",
                          error=type(exc).__name__,
                          **{"from": "native", "to": "fused"}):
                    fused_plan = SymbolicPlan(algorithm=base,
                                              phases=plan.phases,
                                              shape=plan.shape,
                                              row_sizes=plan.row_sizes)
                    try:
                        if self.faults is not None:
                            apply_fault(self.faults.check("engine.kernel"))
                        result = masked_spgemm(
                            A, B, mask, algorithm=base, semiring=semiring,
                            phases=phases, executor=self.executor,
                            plan=fused_plan)
                        if stats is not None:
                            stats.kernel_tier = "fused"
                        return result
                    except (InjectedFault, MemoryError) as exc2:
                        exc, plan = exc2, fused_plan
            frm = kernel_tier(plan.algorithm)
            self._note_degrade(frm, "loop", error=type(exc).__name__)
            with span("degrade", tier="loop", error=type(exc).__name__,
                      **{"from": frm, "to": "loop"}):
                loop_plan = SymbolicPlan(algorithm="msa-loop",
                                         phases=plan.phases,
                                         shape=plan.shape,
                                         row_sizes=plan.row_sizes)
                result = masked_spgemm(A, B, mask, algorithm="msa-loop",
                                       semiring=semiring, phases=phases,
                                       plan=loop_plan)
                if stats is not None:
                    stats.kernel_tier = "loop"
                return result

    def _execute_traced(self, A, B, mask, a_fp, b_fp, mask_fp, *, algorithm,
                        phases, semiring, tag, request, value_fps,
                        trace_id: str, versions: tuple | None = None,
                        plan_free: bool = False) -> Response:
        t_start = time.perf_counter()
        stats = RequestStats(phases=phases, trace_id=trace_id)
        plan: SymbolicPlan | None = None
        # the server stamps a started deadline on the request at admission
        # (so queue time counts); direct engine callers start one here
        deadline = resolve_deadline(request) if request is not None else None
        if deadline is not None:
            deadline.check("engine")

        key = plan_key(a_fp, b_fp, mask_fp, mask.complemented,
                       algorithm, phases, semiring.name)
        rkey = None
        if plan_free:
            # dynamic-mask no-reuse regime: neither cache tier applies (a
            # fresh mask can never repeat), so skip both probes entirely
            value_fps = None
        if value_fps is not None:
            # result tier sits in front of the plan tier: a hit returns the
            # memoized CSR output with no plan lookup and no numeric pass
            rkey = result_key(key, *value_fps)
            with span("cache.lookup", cache="result"):
                with self._lock:
                    cached = self.results.get(rkey)
            if cached is not None:
                stats.algorithm = cached.algorithm
                stats.planned = algorithm.lower() not in BASELINE_KEYS
                stats.result_cache_hit = True
                stats.output_nnz = cached.matrix.nnz
                stats.total_seconds = time.perf_counter() - t_start
                with self._lock:
                    self.stats.record(stats)
                if self.flight is not None:
                    self.flight.note_request(stats.as_summary())
                return Response(result=cached.matrix, stats=stats, tag=tag,
                                request=request)

        if algorithm.lower() in BASELINE_KEYS:
            # whole-matrix baselines have no symbolic phase to plan
            stats.algorithm = algorithm.lower()
            stats.planned = False
        elif plan_free:
            # plan-free route: resolve the kernel per request (auto_select
            # without the msa-loop tier) and bypass the plan cache in both directions —
            # no lookup, and no pollution of the LRU with a key that can
            # never hit again. Counted as the "unplanned" serving tier.
            t0 = time.perf_counter()
            resolved = algorithm.lower()
            if resolved == "auto":
                resolved = kernel_registry.auto_select(
                    A, B, mask, plan_free=True, semiring=semiring)
            kernel_registry.get_spec(resolved)  # invalid names fail loudly
            stats.plan_seconds = time.perf_counter() - t0
            stats.algorithm = resolved
            stats.planned = False
            algorithm = resolved
        else:
            with span("cache.lookup", cache="plan"):
                with self._lock:
                    plan = self.plans.get(key)
            if plan is not None:
                stats.plan_cache_hit = True
                stats.plan_reused = True
                stats.symbolic_skipped = phases == 2
            else:
                t0 = time.perf_counter()
                with span("symbolic.cold", algorithm=algorithm,
                          phases=phases):
                    plan = build_plan(A, B, mask, algorithm=algorithm,
                                      phases=phases, semiring=semiring)
                stats.plan_seconds = time.perf_counter() - t0
                with self._lock:
                    self.plans.put(key, plan)
            stats.algorithm = plan.algorithm
            from ..parallel.runner import uses_direct_write

            stats.direct_write = uses_direct_write(
                plan.algorithm, phases,
                row_sizes_known=plan.row_sizes is not None)

        t0 = time.perf_counter()
        with span("numeric",
                  kernel=plan.algorithm if plan is not None
                  else algorithm.lower()):
            result = self._inprocess_tiers(A, B, mask, plan, algorithm,
                                           phases, semiring, deadline, stats)
        stats.numeric_seconds = time.perf_counter() - t0
        stats.total_seconds = time.perf_counter() - t_start
        stats.output_nnz = result.nnz
        flops = None
        if rkey is not None and self.results.min_flops_per_byte > 0:
            # admission estimate, computed outside the lock (O(nnz(A)))
            from ..core.expand import total_flops

            flops = total_flops(A, B)
        with self._lock:
            if rkey is not None:
                # version guard: a delta (or re-registration) landing on any
                # of this request's store keys mid-execution has already run
                # its invalidation scan — a late writeback here would
                # resurrect a pre-mutation product into the post-mutation
                # cache, behind the invalidation the delta just performed.
                # Refuse it. The response itself is still correct: entries
                # are copy-on-write (a delta swaps in a fresh StoreEntry),
                # so this request computed on a consistent pre-delta
                # snapshot throughout.
                stale = versions is not None and any(
                    self.store.version(k) != v for k, v in versions)
                if stale:
                    self._delta_stale.inc()
                else:
                    with span("cache.writeback"):
                        self.results.put(rkey, result,
                                         stats.algorithm or algorithm,
                                         flops=flops)
            self.stats.record(stats)
        if self.flight is not None:
            self.flight.note_request(stats.as_summary())
        return Response(result=result, stats=stats, tag=tag, request=request)

    # ------------------------------------------------------------------ #
    # plan persistence
    # ------------------------------------------------------------------ #
    def save_plans(self, path) -> int:
        """Persist every cached plan to an ``.npz`` plan store at ``path``.

        Returns the number of plans written. The file is keyed purely on
        content fingerprints, so any engine (this process or a future one)
        whose operands hash identically can :meth:`load_plans` it.
        """
        with self._lock:
            items = self.plans.items()
        return PlanStore(path).save(items)

    def load_plans(self, path) -> int:
        """Warm-start the plan cache from a persisted store; returns the
        number of plans restored. Restored plans behave exactly like locally
        built ones: the first matching request is already a hit and skips
        auto-select and (for 2P) the whole symbolic pass."""
        loaded = PlanStore(path).load()
        with self._lock:
            for key, plan in loaded:
                self.plans.put(key, plan)
        return len(loaded)
