"""The execution engine: stateful masked-SpGEMM with result caching.

``Engine`` turns the one-shot :func:`repro.core.masked_spgemm` call into a
service: operands live in a :class:`~repro.service.store.MatrixStore`, full
numeric results (optionally) in a
:class:`~repro.service.result_cache.ResultCache`, and every product goes
through :meth:`Engine.submit` (store-keyed requests) or
:meth:`Engine.multiply` (ad-hoc operands, used by the iterative algorithms).

Execution of one request:

1. resolve operands and fingerprint their patterns (store entries memoize
   the hash; ad-hoc operands pay it per call — O(nnz), far below a product);
2. when a result cache is attached (store-keyed requests only), probe it
   under the request's structural key extended with both operands' *value*
   hashes. Hit → return the memoized CSR output, bit-identical by
   construction, no numeric pass;
3. resolve ``auto`` with :func:`repro.core.registry.auto_select`;
4. numeric pass (optionally row-parallel via the engine's executor), down
   the native → fused → loop degrade ladder when a kernel fails.

Every request runs one-phase. ``phases=2`` is accepted and served the same
way with the same output bits: the compiled symbolic pass saves nothing a
one-phase numeric pass pays, and a pattern-keyed plan is never reused on
traffic whose masks change every product (``docs/BENCHMARKS.md``, "Plan
cache retirement"). The two-phase algorithm itself stays available as
``masked_spgemm(phases=2)``.

The engine is thread-safe (one lock around store/cache metadata; numeric
work runs outside it), which is what lets each
:class:`~repro.service.server.AsyncServer` worker run its own request
concurrently with the others.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext

from ..core import masked_spgemm, registry
# build_plan, splice_plan: kept for perfbench/tracing.py, which patches them
# here by name; the engine builds no plans
from ..core.plan import build_plan, splice_plan  # noqa: F401
from ..delta import DeltaBatch, DeltaOutcome
from ..errors import AlgorithmError
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
from ..sparse.ops import pattern_fingerprint, value_fingerprint
from ..validation import check_multiplicable
from .requests import Request, RequestStats, Response, check_phases
from .result_cache import ResultCache, result_key
from .store import MatrixStore, StoreError


#: coarse execution tiers a numeric pass can run on, in preference order
KERNEL_TIERS = ("native", "fused", "loop", "baseline")


def kernel_tier(algorithm: str) -> str:
    """Map a resolved kernel key to the coarse execution tier it runs on:
    ``native`` (a compiled key of :data:`~repro.core.registry.NATIVE_BASE`;
    the ``hash-native`` alias runs fused kernels), ``loop`` (the per-row
    reference rung), ``baseline`` (whole-matrix baselines), else ``fused``
    (the vectorised numpy kernels). The engine stamps the tier of the
    kernel that *actually executed* — not the one routing picked — onto
    each request, so degraded-to-fused traffic is distinguishable in
    ``repro_kernel_requests_total`` and the ``kernel tiers:`` line of the
    ``repro serve`` report."""
    key = algorithm.lower()
    if key in NATIVE_BASE:
        return "native"
    if key.endswith("-loop"):
        return "loop"
    if key in BASELINE_KEYS:
        return "baseline"
    return "fused"


class EngineStats:
    """Aggregate engine telemetry, **derived from** the metrics registry.

    The registry (``repro_engine_requests_total{tier}``,
    ``repro_request_seconds{tier}``, ``repro_phase_seconds{phase}``) is the
    single source of truth and every attribute here is a read-only view
    over it, so ``/metrics`` and ``engine.stats`` can never disagree. The
    serving **tier** of a request is where it was answered: ``result``
    (whole numeric output from the result cache) or ``computed`` (a
    numeric pass ran).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_engine_requests_total",
            "requests by serving tier (result/computed)",
            labels=("tier",))
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "end-to-end engine request latency by serving tier",
            labels=("tier",))
        self._phase_seconds = self.registry.histogram(
            "repro_phase_seconds",
            "engine time by phase (numeric = the degrade ladder's kernel "
            "calls)",
            labels=("phase",))
        self._kernel_tier = self.registry.counter(
            "repro_kernel_requests_total",
            "numeric passes by the kernel tier that actually executed "
            "(native/fused/loop/baseline); degraded requests count under "
            "the tier that served them, not the one routing picked",
            labels=("tier",))

    # -- registry-derived views ----------------------------------------- #
    @property
    def requests(self) -> int:
        return int(self._requests.total())

    @property
    def result_hits(self) -> int:
        """Requests served whole from the result cache (no numeric pass)."""
        return int(self._requests.value(tier="result"))

    @property
    def computed(self) -> int:
        """Requests that ran a numeric pass."""
        return int(self._requests.value(tier="computed"))

    @property
    def numeric_seconds(self) -> float:
        return self._phase_seconds.sum(phase="numeric")

    @property
    def kernel_tiers(self) -> dict:
        """Non-zero ``repro_kernel_requests_total`` values by tier — which
        kernel tier actually served the numeric passes (result-cache hits
        ran no kernel and are excluded)."""
        counts = {t: int(self._kernel_tier.value(tier=t))
                  for t in KERNEL_TIERS}
        return {t: c for t, c in counts.items() if c}

    def record(self, stats: RequestStats) -> None:
        tier = stats.serving_tier
        self._requests.inc(tier=tier)
        self._request_seconds.observe(stats.total_seconds, tier=tier)
        if stats.result_cache_hit:
            return
        if stats.kernel_tier:
            self._kernel_tier.inc(tier=stats.kernel_tier)
        self._phase_seconds.observe(stats.numeric_seconds, phase="numeric")


class Engine:
    """Masked-SpGEMM execution engine, one request per call, with an
    optional result cache.

    Parameters
    ----------
    budget_bytes : operand-memory budget of the matrix store (LRU evicted).
    result_cache_bytes : byte budget of a :class:`ResultCache` memoizing
        whole numeric results for store-keyed requests; None (default)
        attaches none. Off by default: ad-hoc/iterative traffic changes
        values every call, so only serving-style deployments should pay the
        per-request value hash.
    executor : optional :mod:`repro.parallel` executor used for the numeric
        pass of every request (row parallelism *within* a product;
        :class:`~repro.service.server.AsyncServer` workers add parallelism
        *across* requests).
    metrics : optional shared :class:`~repro.obs.MetricsRegistry` (a private
        one by default). The engine's own counters, the result cache's,
        and (via :class:`~repro.service.server.AsyncServer`) the server's
        all land in this registry — one ``/metrics`` page per engine.
    tracer : optional shared :class:`~repro.obs.Tracer`; ``tracing`` builds
        the default one enabled/disabled. Every request executes under its
        own trace record (id on ``RequestStats.trace_id``) holding the
        phase spans; disabled tracing reduces every ``span()`` on the path
        to a no-op contextvar read (the <3% overhead gate in
        ``benchmarks/bench_obs_overhead.py`` measures enabled vs that).
    faults : :class:`~repro.resilience.FaultPlan` chaos seam — defaults to
        ``FaultPlan.from_env()`` (the ``REPRO_FAULTS`` variable), so
        ``REPRO_FAULTS=... repro serve`` injects kernel errors into an
        unmodified server. A failed numeric pass degrades down the
        in-process kernel ladder — native → fused → per-row loop — every
        rung bit-identical.
    slos : optional list of :class:`~repro.obs.SLObjective` (what ``serve
        --slo p99=50ms:0.99`` parses). When given, the engine owns an
        :class:`~repro.obs.SLOEvaluator` (``engine.slo``) exporting
        ``repro_slo_*`` burn-rate families over this registry and backing
        the sidecar's ``/slo`` endpoint.
    flight : optional :class:`~repro.obs.FlightRecorder`; the engine builds
        its own by default (ring of request summaries + debug-bundle
        capture whenever a resilience edge fires — degrade, deadline
        shed), wired with a context probe reporting live engine state into
        each bundle. :meth:`close` closes the recorder, which deletes a temp
        spool it created and keeps a caller-named ``spool_dir``.
    """

    def __init__(self, *,
                 budget_bytes: int | None = None,
                 result_cache_bytes: int | None = None,
                 executor=None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 tracing: bool = True,
                 faults: FaultPlan | None = None,
                 slos: list | None = None,
                 flight: FlightRecorder | None = None):
        self.store = MatrixStore(budget_bytes)
        self.results = (ResultCache(result_cache_bytes)
                        if result_cache_bytes is not None else None)
        self.executor = executor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=tracing)
        self.stats = EngineStats(self.metrics)
        # single source of truth for cache accounting: the result cache's
        # counters live in the engine registry
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
        # delta serving: mutation counters + dirty-row share
        self._delta_total = self.metrics.counter(
            "repro_delta_total",
            "applied edge-delta batches by kind "
            "(value/pattern/mixed/noop)",
            labels=("kind",))
        self._delta_dirty_fraction = self.metrics.histogram(
            "repro_delta_dirty_fraction",
            "fraction of the mutated matrix's rows a pattern delta "
            "dirtied (share of rows whose pattern changed)",
            buckets=(0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0))
        self._delta_stale = self.metrics.counter(
            "repro_delta_stale_total",
            "late result-cache writebacks refused by the store-version "
            "guard (a delta landed while the request executed)")
        # resolve + compile the native kernel tier off the request path
        # (memoized: only the first engine in a process pays the C
        # compile) and record it
        native_warmup(metrics=self.metrics)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Mark the engine closed, so :meth:`ready` reports it out of
        rotation, and close the flight recorder (which deletes a temp spool
        it created). Idempotent; the executor is caller-owned and stays
        open."""
        self._closed = True
        self.flight.close()

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

        Cached results need no explicit invalidation: they are keyed by
        pattern and value fingerprints, so a replacement with new content
        misses by construction.
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
    def apply_delta(self, key: str, batch: DeltaBatch) -> DeltaOutcome:
        """Mutate the matrix registered under ``key`` by one edge-delta
        batch.

        Four steps: apply the batch, re-fingerprint the result (a
        value-only batch carries the pattern fingerprint forward), swap the
        store entry copy-on-write, and invalidate the result-cache entries
        that name the old fingerprints. The swap bumps the entry's version,
        which arms the writeback guard against in-flight requests.

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
        # re-fingerprint outside the lock: the pattern hash is carried
        # forward when the pattern did not change
        new_pattern_fp = (pattern_fingerprint(new.indptr, new.indices,
                                              new.shape)
                          if outcome.pattern_changed else old_pattern_fp)
        new_value_fp = value_fingerprint(new.data)
        invalidated = 0
        with self._lock:
            self.store.swap(key, new, fingerprint=new_pattern_fp,
                            value_fingerprint=new_value_fp)
            if self.results is not None:
                stale_fps = {old_value_fp}
                if outcome.pattern_changed:
                    stale_fps.add(old_pattern_fp)
                invalidated = self.results.invalidate_fingerprints(stale_fps)
        dirty = int(outcome.dirty_rows.size)
        frac = dirty / max(value.nrows, 1)
        self._delta_total.inc(kind=outcome.kind)
        if outcome.pattern_changed:
            self._delta_dirty_fraction.observe(frac)
        return DeltaOutcome(key=key, kind=outcome.kind, dirty_rows=dirty,
                            dirty_fraction=frac,
                            results_invalidated=invalidated,
                            pattern_fingerprint=new_pattern_fp,
                            value_fingerprint=new_value_fp,
                            seconds=time.perf_counter() - t_start)

    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> Response:
        """Execute one store-keyed request."""
        with self._lock:
            a_entry = self.store.entry(request.a)
            b_entry = self.store.entry(request.b)
            mask_entry = (self.store.entry(request.mask)
                          if request.mask is not None else None)
        A, B = a_entry.value, b_entry.value
        if not isinstance(A, CSRMatrix) or not isinstance(B, CSRMatrix):
            raise StoreError(
                f"operands {request.a!r}/{request.b!r} must be CSR matrices "
                f"(masks can only appear in the mask slot)"
            )
        mask = self._resolve_mask(mask_entry.value if mask_entry else None,
                                  (A.nrows, B.ncols), request.complemented)
        semiring = semiring_by_name(request.semiring)
        rkey = None
        if self.results is not None:
            # fingerprints are read outside the lock: register() pre-warms
            # them, but a first touch here (entries registered via a bare
            # store) is O(nnz) hashing — memoized on the entry, so a racing
            # duplicate compute is idempotent and harmless
            mask_fp = (mask_entry.fingerprint if mask_entry else
                       pattern_fingerprint(mask.indptr, mask.indices,
                                           mask.shape))
            rkey = result_key(a_entry.fingerprint, b_entry.fingerprint,
                              mask_fp, request.complemented,
                              request.algorithm, semiring.name,
                              a_entry.value_fingerprint,
                              b_entry.value_fingerprint)
        # store-version snapshot for the writeback guard: entry versions are
        # immutable per entry object (deltas swap in a fresh entry), so the
        # snapshot pins exactly the operand state this request resolved
        versions = ((request.a, a_entry.version), (request.b, b_entry.version))
        if mask_entry is not None:
            versions += ((request.mask, mask_entry.version),)
        return self._execute(A, B, mask, algorithm=request.algorithm,
                             phases=request.phases, semiring=semiring,
                             tag=request.tag, request=request, rkey=rkey,
                             versions=versions)

    def multiply(self, A: CSRMatrix, B: CSRMatrix,
                 mask: Mask | CSRMatrix | None = None, *,
                 algorithm: str = "auto", phases: int = 1,
                 semiring: Semiring | str = "plus_times",
                 complemented: bool = False, tag: str = "") -> Response:
        """Execute an ad-hoc product (no store keys, no result cache).

        This is the entry point the iterative algorithms use: operands are
        fresh objects every iteration, so there is nothing to memoize, but
        the product still gets the engine's tracing, metrics and degrade
        ladder. ``phases`` is validated and served one-phase, as in
        :meth:`submit`.
        """
        if isinstance(semiring, str):
            semiring = semiring_by_name(semiring)
        mask = self._resolve_mask(mask, (A.nrows, B.ncols), complemented)
        return self._execute(A, B, mask, algorithm=algorithm, phases=phases,
                             semiring=semiring, tag=tag, request=None)

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

    def _execute(self, A, B, mask, *, algorithm, phases, semiring, tag,
                 request, rkey: tuple | None = None,
                 versions: tuple | None = None) -> Response:
        trace_id = (f"r{next(self._trace_seq):06d}"
                    if self.tracer.enabled else "")
        with self.tracer.trace(trace_id, tag=tag,
                               algorithm=algorithm) as rec:
            with chunk_observer(self._observe_chunk):
                try:
                    resp = self._execute_traced(
                        A, B, mask, algorithm=algorithm, phases=phases,
                        semiring=semiring, tag=tag, request=request,
                        rkey=rkey, trace_id=trace_id, versions=versions)
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
    def _numeric_ladder(self, A, B, mask, algorithm, semiring, deadline,
                        stats) -> CSRMatrix:
        """The numeric pass and its degrade ladder, one rung at a time.

        The rungs are the resolved kernel, then — for a native key
        (``msa-native``) — its fused base kernel
        (:data:`~repro.core.registry.NATIVE_BASE`), then the per-row
        ``msa-loop`` kernel, run serially. Every registered kernel computes
        the same masked product, so each rung is bit-identical. Baselines
        run as a single rung.

        Every rung but the last checks the ``engine.kernel`` fault site, so
        each injected fault drops exactly one rung. Only deliberate
        injections (:class:`InjectedFault`) and memory pressure degrade;
        genuine kernel bugs stay loud, because silently papering over them
        would hide miscompares, not failures. Each drop is counted and
        flight-recorded, and the lower rung runs under a ``degrade`` span.
        The tier that actually executed is stamped onto
        ``stats.kernel_tier``.
        """
        if deadline is not None:
            deadline.check("engine", "numeric start")
        rungs = [(algorithm, self.executor)]
        if algorithm not in BASELINE_KEYS:
            base = NATIVE_BASE.get(algorithm)
            if base is not None:
                rungs.append((base, self.executor))
            rungs.append(("msa-loop", None))
        failed = None
        for i, (key, executor) in enumerate(rungs):
            last = i == len(rungs) - 1
            tier = kernel_tier(key)
            if failed is None:
                ctx = nullcontext()
            else:
                frm, error = failed
                self._note_degrade(frm, tier, error=error)
                ctx = span("degrade", tier=tier, error=error,
                           **{"from": frm, "to": tier})
            with ctx:
                try:
                    if not last and self.faults is not None:
                        apply_fault(self.faults.check("engine.kernel"))
                    result = masked_spgemm(A, B, mask, algorithm=key,
                                           semiring=semiring,
                                           executor=executor)
                except (InjectedFault, MemoryError) as exc:
                    if last:
                        raise
                    failed = (tier, type(exc).__name__)
                    continue
            stats.kernel_tier = tier
            return result

    def _execute_traced(self, A, B, mask, *, algorithm, phases, semiring,
                        tag, request, rkey, trace_id: str,
                        versions: tuple | None = None) -> Response:
        t_start = time.perf_counter()
        stats = RequestStats(trace_id=trace_id)
        check_phases(phases)
        # the server stamps a started deadline on the request at admission
        # (so queue time counts); direct engine callers start one here
        deadline = resolve_deadline(request) if request is not None else None
        if deadline is not None:
            deadline.check("engine")

        result = None
        if rkey is not None:
            # a hit returns the memoized CSR output with no numeric pass
            with span("cache.lookup", cache="result"):
                with self._lock:
                    cached = self.results.get(rkey)
            if cached is not None:
                stats.algorithm = cached.algorithm
                stats.result_cache_hit = True
                result = cached.matrix

        if result is None:
            # validate before the ladder, so an injected fault can never let
            # a malformed request degrade into a rung that happens to
            # accept it
            mask.check_output_shape(check_multiplicable(A.shape, B.shape))
            algorithm = algorithm.lower()
            if algorithm == "auto":
                # through the module attribute, so a patched auto_select
                # sees it
                algorithm = registry.auto_select(A, B, mask,
                                                 semiring=semiring)
            elif algorithm not in BASELINE_KEYS:
                registry.get_spec(algorithm)  # raises on an unknown key
            stats.algorithm = algorithm

            t0 = time.perf_counter()
            with span("numeric", kernel=algorithm):
                result = self._numeric_ladder(A, B, mask, algorithm,
                                              semiring, deadline, stats)
            stats.numeric_seconds = time.perf_counter() - t0
        stats.total_seconds = time.perf_counter() - t_start
        stats.output_nnz = result.nnz
        with self._lock:
            if rkey is not None and not stats.result_cache_hit:
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
                        self.results.put(rkey, result, algorithm)
            self.stats.record(stats)
        if self.flight is not None:
            self.flight.note_request(stats.as_summary())
        return Response(result=result, stats=stats, tag=tag, request=request)
