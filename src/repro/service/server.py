"""Async serving front end: admission, backpressure, worker-pool execution.

:class:`AsyncServer` admits work concurrently with execution:

* **admission queue** — :meth:`AsyncServer.submit` enqueues a request and
  returns an awaitable :class:`~repro.service.requests.Response`; producers
  and the worker pool overlap freely;
* **bounded backpressure** — admission suspends (never drops) while either
  bound is exceeded: ``max_inflight`` admitted-but-unfinished requests, or
  ``max_queued_flops`` estimated partial products sitting in the queue
  (flops, not request count, because request cost varies by orders of
  magnitude — one scale-12 product outweighs hundreds of tiny ones). A
  request larger than the whole flops budget is still admitted once the
  queue is empty, so oversized work degrades to serial instead of
  deadlocking;
* **worker pool** — N asyncio workers each take the oldest queued request
  and run :meth:`Engine.submit` on it in a thread (`asyncio.to_thread`), so
  the event loop stays responsive and distinct requests run side by side
  on distinct workers (the compiled kernels release the GIL);
* **request dedup** — concurrent *identical* in-flight requests (same
  operand patterns *and values*, same mask/algorithm/semiring — the
  result-cache key, computed from the store entries' fingerprints) coalesce
  onto one future: only the first executes; followers await it and receive
  a response flagged ``stats.coalesced``. A burst of equal products costs
  one numeric pass instead of N once the first has been admitted; requests
  arriving while their twin is still *suspended in the admission gate* are
  not coalesced (keys register post-admission, so a registered future is
  always eventually resolved by a worker — followers can never hang on a
  request that was refused). Disable with ``dedup=False`` (there is no
  reason to unless fingerprint hashing itself must be avoided);
* **graceful shutdown** — :meth:`AsyncServer.close` stops admission
  (subsequent submits raise :class:`ServerClosed`), drains every queued
  request, and joins the workers.

Per-request telemetry rides the normal
:class:`~repro.service.requests.RequestStats` (the server fills
``queued_seconds``); server-level counters live in :class:`ServerStats`.

Quickstart::

    import asyncio
    from repro.service import AsyncServer, Engine, Request

    async def main(engine: Engine):
        async with AsyncServer(engine, workers=2, max_inflight=32) as srv:
            reqs = [Request(a="A", b="A", mask="M")] * 64
            resps = await asyncio.gather(*[srv.submit(r) for r in reqs])
        return resps
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace

from ..core.expand import total_flops
from ..errors import ReproError
from ..obs import MetricsRegistry
from ..resilience import Deadline, DeadlineExceeded
from ..validation import check_multiplicable
from .engine import Engine
from .requests import Request, RequestStats, Response, check_phases


#: most (A-pattern, B-pattern) flops estimates a server memoizes
_FLOPS_MEMO_CAP = 4096


class ServerError(ReproError):
    """Async front-end misuse (bad bounds, double start, …)."""


class ServerClosed(ServerError):
    """Request submitted after :meth:`AsyncServer.close` began."""


@dataclass
class _Pending:
    """One admitted request waiting in the queue."""

    request: Request
    future: asyncio.Future
    flops: int
    t_admit: float


class ServerStats:
    """Server-level telemetry, **derived from** the metrics registry.

    Like :class:`~repro.service.engine.EngineStats`, the registry
    (``repro_server_requests_total{outcome}``,
    ``repro_server_batches_total``, the queue-depth/in-flight gauges and
    watermarks, ``repro_queued_seconds``,
    ``repro_server_request_seconds``) is the single bookkeeping system;
    every attribute here is a read-only view over it. The server shares
    its engine's registry by default, so one ``/metrics`` page covers
    admission through kernels.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._outcomes = self.registry.counter(
            "repro_server_requests_total",
            "server requests by outcome (admitted counts every entry; "
            "coalesced requests are never admitted)",
            labels=("outcome",))
        self._executions = self.registry.counter(
            "repro_server_batches_total",
            "worker executions (one request each; coalesced and shed "
            "requests never execute)")
        self._queue_depth = self.registry.gauge(
            "repro_server_queue_depth",
            "requests currently waiting in the admission queue")
        self._inflight_gauge = self.registry.gauge(
            "repro_server_inflight",
            "admitted-but-unfinished requests")
        self._watermarks = self.registry.gauge(
            "repro_server_watermark",
            "high-water marks (kind=queue_depth|inflight)",
            labels=("kind",))
        self._queued_seconds = self.registry.histogram(
            "repro_queued_seconds", "admission→execution queue wait")
        self._latency_seconds = self.registry.histogram(
            "repro_server_request_seconds",
            "admission→completion request latency")
        # same family the engine declares — create-or-get by name, so one
        # counter spans every enforcement stage
        self._deadline_total = self.registry.counter(
            "repro_deadline_total",
            "requests shed by deadline, by enforcement stage",
            labels=("stage",))

    # -- recording hooks (called by AsyncServer) ------------------------ #
    def note_admitted(self, queue_depth: int, inflight: int) -> None:
        self._outcomes.inc(outcome="admitted")
        self.observe_queue(queue_depth, inflight)
        for kind, value in (("queue_depth", queue_depth),
                            ("inflight", inflight)):
            if value > self._watermarks.value(kind=kind):
                self._watermarks.set(value, kind=kind)

    def observe_queue(self, queue_depth: int, inflight: int) -> None:
        self._queue_depth.set(queue_depth)
        self._inflight_gauge.set(inflight)

    def note_coalesced(self) -> None:
        self._outcomes.inc(outcome="coalesced")

    def note_execution(self) -> None:
        self._executions.inc()

    def note_failed(self) -> None:
        self._outcomes.inc(outcome="failed")

    def note_shed(self, stage: str) -> None:
        """A request dropped by deadline enforcement at ``stage``."""
        self._outcomes.inc(outcome="shed")
        self._deadline_total.inc(stage=stage)

    def note_completed(self, stats: RequestStats) -> None:
        self._outcomes.inc(outcome="completed")
        self._queued_seconds.observe(stats.queued_seconds)
        self._latency_seconds.observe(stats.total_seconds)

    # -- registry-derived views ----------------------------------------- #
    @property
    def admitted(self) -> int:
        return int(self._outcomes.value(outcome="admitted"))

    @property
    def completed(self) -> int:
        return int(self._outcomes.value(outcome="completed"))

    @property
    def failed(self) -> int:
        return int(self._outcomes.value(outcome="failed"))

    @property
    def coalesced(self) -> int:
        """Requests served by awaiting an identical in-flight request's
        future (never admitted, never executed)."""
        return int(self._outcomes.value(outcome="coalesced"))

    @property
    def shed(self) -> int:
        """Requests dropped by deadline enforcement (any stage)."""
        return int(self._outcomes.value(outcome="shed"))

    @property
    def batches(self) -> int:
        """Worker executions, one request each (completed + failed after
        admission)."""
        return int(self._executions.value())

    @property
    def max_queue_depth(self) -> int:
        return int(self._watermarks.value(kind="queue_depth"))

    @property
    def max_inflight_seen(self) -> int:
        return int(self._watermarks.value(kind="inflight"))


class AsyncServer:
    """Asyncio request front end over a (thread-safe) :class:`Engine`.

    Parameters
    ----------
    engine : the engine owning operands and results.
    workers : worker-pool size — requests executing at once. Each worker
        runs one request at a time in its own thread, so size this like a
        thread pool (the compiled kernels and numpy sections release the
        GIL).
    max_inflight : admission bound on admitted-but-unfinished requests.
    max_queued_flops : admission bound on summed estimated partial products
        waiting in the queue (None = unbounded). Estimates come from
        ``total_flops(A, B)`` on the store-resolved operands, memoized per
        operand-pattern pair.
    dedup : coalesce concurrent identical in-flight requests onto one
        future (see module docstring). On by default.
    """

    def __init__(self, engine: Engine, *, workers: int = 2,
                 max_inflight: int = 64,
                 max_queued_flops: int | None = None,
                 dedup: bool = True):
        if workers <= 0 or max_inflight <= 0:
            raise ServerError(
                f"workers/max_inflight must be positive, got "
                f"{workers}/{max_inflight}"
            )
        if max_queued_flops is not None and max_queued_flops <= 0:
            raise ServerError(
                f"max_queued_flops must be positive or None, got "
                f"{max_queued_flops}"
            )
        self.engine = engine
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_queued_flops = max_queued_flops
        self.dedup = dedup
        #: result-cache key → future of the identical in-flight primary
        self._inflight_keys: dict[tuple, asyncio.Future] = {}
        # delta/read ordering (all mutated on the event-loop thread, waits
        # via self._cond): store keys with an apply_delta in progress, and
        # per-key counts of reads between admission and completion
        self._writers: set[str] = set()
        self._readers: dict[str, int] = {}
        #: one-shot events armed by delta writers waiting for readers to
        #: drain; set (synchronously) by every reader release
        self._drain_events: set[asyncio.Event] = set()
        # share the engine's registry: one /metrics page spans admission
        # through kernel chunks
        self.stats = ServerStats(engine.metrics)
        self._pending: deque[_Pending] = deque()
        self._queued_flops = 0
        self._inflight = 0
        self._closed = False
        self._cond: asyncio.Condition | None = None  # bound to the loop in start()
        self._tasks: list[asyncio.Task] = []
        # bounded LRU: a long-lived server with operand churn must not grow
        # one memo entry per pattern pair forever
        self._flops_memo: OrderedDict[tuple[str, str], int] = OrderedDict()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "AsyncServer":
        if self._tasks:
            raise ServerError("server already started")
        self._closed = False
        self._cond = asyncio.Condition()
        self._tasks = [asyncio.create_task(self._worker(), name=f"repro-worker-{i}")
                       for i in range(self.workers)]
        return self

    async def close(self) -> None:
        """Graceful shutdown: refuse new work, drain the queue, join workers.

        Robust on failure paths: workers are joined with
        ``return_exceptions=True`` and any queued request left unresolved
        (a worker task that died mid-drain) gets :class:`ServerClosed` set
        on its future, so no submitter can hang on shutdown. The first
        worker-task error (there should be none — workers attribute
        failures per request) is re-raised after cleanup completes.
        """
        if self._cond is None:
            return
        async with self._cond:
            self._closed = True
            self._cond.notify_all()
        results = await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        async with self._cond:
            leftovers, self._pending = list(self._pending), deque()
            self._queued_flops = 0
        for pending in leftovers:  # pragma: no cover - worker-death path
            if not pending.future.done():
                pending.future.set_exception(
                    ServerClosed("server worker died before this request ran"))
        errors = [r for r in results if isinstance(r, BaseException)]
        if errors:  # pragma: no cover - workers catch per-request failures
            raise errors[0]

    async def __aenter__(self) -> "AsyncServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _resolve_entries(self, request: Request):
        """Store-entry resolution for admission. Unknown store keys and a
        bad ``phases`` fail here — at admission, where the error belongs,
        and before dedup could coalesce the request onto a valid twin —
        rather than inside a worker. Resolution goes through ``Engine.entry`` (the locked path):
        this runs on the event-loop thread concurrently with worker threads
        mutating the store's LRU order."""
        check_phases(request.phases)
        a_entry = self.engine.entry(request.a)
        b_entry = self.engine.entry(request.b)
        mask_entry = (self.engine.entry(request.mask)
                      if request.mask is not None else None)
        return a_entry, b_entry, mask_entry

    def _estimate_flops(self, a_entry, b_entry) -> int:
        """Partial-product estimate for the queued-flops bound, memoized per
        (A-pattern, B-pattern) pair."""
        key = (a_entry.fingerprint, b_entry.fingerprint)
        flops = self._flops_memo.get(key)
        if flops is None:
            # shape check first: total_flops indexes B's rows by A's columns
            # and would die with a bare IndexError on mismatched operands
            check_multiplicable(a_entry.value.shape, b_entry.value.shape)
            flops = total_flops(a_entry.value, b_entry.value)
            self._flops_memo[key] = flops
            while len(self._flops_memo) > _FLOPS_MEMO_CAP:
                self._flops_memo.popitem(last=False)
        else:
            self._flops_memo.move_to_end(key)
        return flops

    def _dedup_key(self, request: Request, a_entry, b_entry,
                   mask_entry) -> tuple:
        """Identity of a request's *result*: operand patterns and values,
        mask pattern, and the kernel configuration — the async analogue of
        the result-cache key. Two requests with equal keys are guaranteed
        the same output, so the second can await the first."""
        return (a_entry.fingerprint, b_entry.fingerprint,
                a_entry.value_fingerprint, b_entry.value_fingerprint,
                mask_entry.fingerprint if mask_entry is not None else "",
                request.complemented, request.algorithm.lower(),
                request.semiring)

    def _shed(self, stage: str, detail: str = "") -> None:
        """Record and raise a deadline shed at ``stage``."""
        self.stats.note_shed(stage)
        flight = getattr(self.engine, "flight", None)
        if flight is not None:
            # a shed is a resilience edge: flight-record it with the
            # server-side stage (engine-side sheds capture in _execute)
            flight.capture("deadline", detail=f"stage={stage} {detail}")
        extra = f" ({detail})" if detail else ""
        raise DeadlineExceeded(f"deadline exceeded at {stage}{extra}",
                               stage=stage)

    # ------------------------------------------------------------------ #
    # delta/read ordering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _request_keys(request: Request) -> set[str]:
        keys = {request.a, request.b}
        if request.mask is not None:
            keys.add(request.mask)
        return keys

    async def _begin_read(self, keys: set[str], deadline) -> None:
        """Gate a read against in-progress deltas: wait until none of the
        request's store keys has an ``apply_delta`` running (so entry
        resolution sees post-delta state), then register as a reader on
        each key until completion. Runs before backpressure admission —
        delta ordering is about *store state*, not queue capacity."""
        async with self._cond:
            while not self._closed and (keys & self._writers):
                if deadline is None:
                    await self._cond.wait()
                    continue
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    self._shed("admission", "delta in progress on operand")
                try:
                    await asyncio.wait_for(self._cond.wait(), remaining)
                except asyncio.TimeoutError:
                    self._shed("admission", "delta in progress on operand")
            if self._closed:
                raise ServerClosed("server is shutting down; request refused")
            for k in keys:
                self._readers[k] = self._readers.get(k, 0) + 1

    def _end_read(self, keys: set[str]) -> None:
        """Reader release. Synchronous on purpose: running in a ``finally``
        with no await leaves no cancellation window, so a cancelled or shed
        submitter can never leak a reader count (which would deadlock a
        waiting delta). Wakes any writer parked on the drain events."""
        for k in keys:
            n = self._readers.get(k, 0) - 1
            if n <= 0:
                self._readers.pop(k, None)
            else:
                self._readers[k] = n
        for ev in list(self._drain_events):
            ev.set()

    async def apply_delta(self, key: str, batch):
        """Apply one :class:`~repro.delta.DeltaBatch` to the matrix stored
        under ``key``, ordered against in-flight reads.

        Ordering contract: the delta waits until every request naming
        ``key`` admitted *before it* has completed; requests arriving
        *after* the delta began wait at the admission gate and resolve
        post-delta entries. Deltas on the same key serialize; deltas on
        distinct keys and reads on unrelated keys proceed concurrently. The
        mutation itself runs
        :meth:`Engine.apply_delta` in a worker thread and returns its
        :class:`~repro.delta.DeltaOutcome`.
        """
        if self._cond is None:
            raise ServerError("server not started (use `async with` or start())")
        if self._closed:
            raise ServerClosed("server is shutting down; delta refused")
        async with self._cond:
            while key in self._writers:
                await self._cond.wait()
                if self._closed:
                    raise ServerClosed(
                        "server is shutting down; delta refused")
            self._writers.add(key)
        try:
            while self._readers.get(key, 0):
                ev = asyncio.Event()
                self._drain_events.add(ev)
                try:
                    if self._readers.get(key, 0):
                        await ev.wait()
                finally:
                    self._drain_events.discard(ev)
            return await asyncio.to_thread(self.engine.apply_delta,
                                           key, batch)
        finally:
            # discard is synchronous (no cancellation window can leave the
            # key write-locked); the notify wake-up is shielded so waiting
            # readers are released even if this task was cancelled
            self._writers.discard(key)
            await asyncio.shield(self._notify_waiters())

    async def _notify_waiters(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    async def submit(self, request: Request) -> Response:
        """Admit one request (suspending under backpressure) and await its
        response. Raises :class:`ServerClosed` once shutdown has begun, and
        re-raises whatever the engine raised for this specific request.

        An identical request already in flight short-circuits admission: the
        call awaits the primary's future and returns a shared-result
        response flagged ``stats.coalesced``.

        Requests with ``deadline_ms`` start their budget *here*, so every
        later interval — the backpressure gate, queue time, scatter waits —
        counts against it. Each enforcement stage sheds with a typed
        :class:`~repro.resilience.DeadlineExceeded` naming the stage, and a
        coalesced follower whose own budget expires while the primary runs
        gets its own ``stage="follower"`` shed rather than inheriting the
        primary's fate."""
        if self._cond is None:
            raise ServerError("server not started (use `async with` or start())")
        if self._closed:
            raise ServerClosed("server is shutting down; request refused")
        # stamp the started deadline onto the request: the engine's
        # resolve_deadline() picks it up, so queue time spends the budget
        deadline = Deadline.after_ms(request.deadline_ms)
        if deadline is not None:
            request._deadline = deadline
        # order against deltas: wait out any in-progress mutation of this
        # request's operands, then hold them read-locked until completion
        keys = self._request_keys(request)
        await self._begin_read(keys, deadline)
        try:
            return await self._submit_read(request, deadline)
        finally:
            self._end_read(keys)

    async def _submit_read(self, request: Request, deadline) -> Response:
        """Post-gate submission flow (operand read locks held by caller)."""
        a_entry, b_entry, mask_entry = self._resolve_entries(request)
        key = None
        if self.dedup:
            key = self._dedup_key(request, a_entry, b_entry, mask_entry)
            while True:
                primary = self._inflight_keys.get(key)
                if primary is None or primary.done():
                    break
                if deadline is not None and deadline.expired():
                    self._shed("follower", "identical request in flight")
                # shield: a follower being cancelled must not cancel the
                # primary's future out from under everyone else awaiting it
                try:
                    if deadline is None:
                        primary_resp = await asyncio.shield(primary)
                    else:
                        primary_resp = await asyncio.wait_for(
                            asyncio.shield(primary), deadline.remaining())
                except asyncio.TimeoutError:
                    # this follower's own budget ran out first; the primary
                    # (still shielded) keeps running for everyone else
                    self._shed("follower", "own deadline expired while "
                                           "awaiting the primary")
                except asyncio.CancelledError:
                    if primary.cancelled():
                        continue  # primary abandoned; re-check, else execute
                    raise  # this follower itself was cancelled
                except DeadlineExceeded:
                    # the *primary* was shed on its own (shorter) deadline;
                    # this follower still has budget — re-check and execute
                    # for real instead of inheriting the primary's shed
                    if deadline is not None and deadline.expired():
                        self._shed("follower",
                                   "primary shed; own budget also spent")
                    continue
                except Exception:
                    if deadline is not None and deadline.expired():
                        # attribute the follower's expiry, not the
                        # primary's unrelated failure
                        self._shed("follower", "own deadline expired "
                                               "before the primary failed")
                    raise
                self.stats.note_coalesced()
                return Response(result=primary_resp.result,
                                stats=replace(primary_resp.stats,
                                              coalesced=True),
                                tag=request.tag, request=request)
        flops = self._estimate_flops(a_entry, b_entry)
        loop = asyncio.get_running_loop()
        item = _Pending(request=request, future=loop.create_future(),
                        flops=flops, t_admit=time.perf_counter())
        async with self._cond:
            while not self._closed and not self._admittable(flops):
                if deadline is None:
                    await self._cond.wait()
                    continue
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    self._shed("admission", "backpressure gate")
                try:
                    await asyncio.wait_for(self._cond.wait(), remaining)
                except asyncio.TimeoutError:
                    self._shed("admission", "backpressure gate")
            if self._closed:
                raise ServerClosed("server is shutting down; request refused")
            self._pending.append(item)
            self._queued_flops += flops
            self._inflight += 1
            self.stats.note_admitted(len(self._pending), self._inflight)
            self._cond.notify_all()
        if key is not None and key not in self._inflight_keys:
            # registered only once *admitted*: every registered future is
            # eventually resolved by a worker (close() drains the queue), so
            # followers can never hang on it
            self._inflight_keys[key] = item.future
            item.future.add_done_callback(
                lambda fut, k=key: self._drop_inflight_key(k, fut))
        if deadline is None:
            return await item.future
        try:
            # wait_for cancels the future on timeout: a worker reaching it
            # later sees .done() and skips it, and the queue sweep reclaims
            # its in-flight slot — no stranded futures, no wasted kernels
            return await asyncio.wait_for(item.future,
                                          max(deadline.remaining(), 0.0))
        except asyncio.TimeoutError:
            self._shed("submit", "deadline expired awaiting execution")

    def _drop_inflight_key(self, key: tuple, fut: asyncio.Future) -> None:
        if self._inflight_keys.get(key) is fut:
            del self._inflight_keys[key]

    def _admittable(self, flops: int) -> bool:
        if self._inflight >= self.max_inflight:
            return False
        if self.max_queued_flops is None:
            return True
        # an empty queue always admits, so one oversized request degrades to
        # serial execution instead of waiting forever
        return (not self._pending
                or self._queued_flops + flops <= self.max_queued_flops)

    # ------------------------------------------------------------------ #
    # worker pool
    # ------------------------------------------------------------------ #
    def _sweep_queue_locked(self) -> None:
        """Shed queued requests that can no longer be served — expired
        deadlines (their submitter gets a ``stage="queue"``
        :class:`DeadlineExceeded`) and already-done futures (the submitter's
        own deadline cancelled them) — before a worker wastes a thread on
        them. Runs under the condition lock."""
        if not self._pending:
            return
        kept: deque[_Pending] = deque()
        dropped = False
        for p in self._pending:
            dl = getattr(p.request, "_deadline", None)
            if not p.future.done() and (dl is None or not dl.expired()):
                kept.append(p)
                continue
            if not p.future.done():
                self.stats.note_shed("queue")
                p.future.set_exception(DeadlineExceeded(
                    "deadline expired while queued", stage="queue"))
            self._inflight -= 1
            self._queued_flops -= p.flops
            dropped = True
        if dropped:
            self._pending = kept
            self.stats.observe_queue(len(self._pending), self._inflight)
            self._cond.notify_all()  # freed budget: wake throttled producers

    async def _next_request(self) -> _Pending | None:
        """Oldest pending request, or None when closed and fully drained."""
        async with self._cond:
            while True:
                self._sweep_queue_locked()
                if self._pending or self._closed:
                    break
                await self._cond.wait()
            if not self._pending:
                return None  # closed and drained
            pending = self._pending.popleft()
            self._queued_flops -= pending.flops
            self.stats.observe_queue(len(self._pending), self._inflight)
            # dequeuing frees queued-flops budget immediately: wake producers
            # throttled on that bound now, not after the request finishes
            # executing (the in-flight bound still holds them if it applies)
            self._cond.notify_all()
            return pending

    async def _worker(self) -> None:
        while True:
            pending = await self._next_request()
            if pending is None:
                return
            t_exec = time.perf_counter()
            try:
                result = await asyncio.to_thread(self.engine.submit,
                                                 pending.request)
            except Exception as e:
                # attributed to this request alone; the worker stays alive,
                # since dying here would strand the futures of everything
                # still queued. CancelledError and friends are BaseException
                # and deliberately NOT caught: a cancelled worker must die
                # promptly (close() fails its leftovers)
                result = e
            t_done = time.perf_counter()
            async with self._cond:
                self.stats.note_execution()
                self._inflight -= 1
                if isinstance(result, Exception):
                    self.stats.note_failed()
                    # .done(), not .cancelled(): a deadline may have
                    # resolved this future while the request executed
                    if not pending.future.done():
                        pending.future.set_exception(result)
                else:
                    result.stats.queued_seconds = t_exec - pending.t_admit
                    result.stats.total_seconds = t_done - pending.t_admit
                    self.stats.note_completed(result.stats)
                    # stitch the admission wait into the request's trace as
                    # a post-hoc span: the engine only sees the request once
                    # a worker takes it, so the server owns this interval
                    if result.stats.trace_id:
                        rec = self.engine.tracer.get(result.stats.trace_id)
                        if rec is not None:
                            rec.add_span("queue", pending.t_admit, t_exec)
                    if not pending.future.done():
                        pending.future.set_result(result)
                self.stats.observe_queue(len(self._pending), self._inflight)
                self._cond.notify_all()  # wake throttled producers


async def serve_all(server: AsyncServer,
                    requests: list[Request]) -> list[Response]:
    """Submit every request concurrently (admission throttles) and gather
    responses in input order."""
    return list(await asyncio.gather(
        *[server.submit(req) for req in requests]))
