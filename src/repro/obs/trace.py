"""Context-var span tracer with bounded retention and Chrome-trace export.

One served request crosses many layers — admission, queue, cache lookup,
chunked numeric, cache writeback — and
the question the paper keeps asking ("where does the time go?") needs those
layers stitched into *one* timeline. This module provides:

* :func:`span` — the single instrumentation primitive. Inside an active
  trace, ``with span("numeric", kernel="hash", rows=512):`` records a
  nested interval on the monotonic clock; outside any trace it is a no-op
  costing one contextvar read, which is what keeps always-on
  instrumentation cheap enough to leave compiled in everywhere.
* :class:`Tracer` — owns a bounded ring of finished :class:`TraceRecord`\\ s
  (oldest evicted first) and activates one record per request via
  :meth:`Tracer.trace`. Nesting is tracked through a ``contextvars``
  context, so spans opened anywhere down the call stack attach to the
  right parent — but note that ``ThreadPoolExecutor`` workers do *not*
  inherit the submitting context; executor call-sites capture the active
  record explicitly (see :func:`repro.parallel.runner.timed_chunks`)
  and attach chunk spans with :meth:`TraceRecord.add_span`.
* :func:`capture` — a standalone activation for offline captures and
  tests: spans land in a fresh record outside any :class:`Tracer`.
* :meth:`TraceRecord.chrome` — export as Chrome ``traceEvents`` JSON
  (complete ``ph: "X"`` events, microsecond timestamps relative to the
  trace start, one ``pid``/``tid`` row per worker), loadable directly in
  Perfetto or ``chrome://tracing``.

Exception safety: a span body that raises still closes the span (with an
``error`` attribute naming the exception type) and re-raises.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "TraceRecord", "Tracer", "span", "capture",
           "current_record"]


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    t0: float
    t1: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return max(0.0, self.t1 - self.t0)


class TraceRecord:
    """All spans of one request. Append-only, span-count bounded."""

    def __init__(self, trace_id: str, *, max_spans: int = 4096,
                 attrs: dict[str, Any] | None = None):
        self.trace_id = trace_id
        self.max_spans = max_spans
        self.attrs = dict(attrs or {})
        self.spans: list[Span] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._next_id = 0

    # -- recording ----------------------------------------------------- #
    def _new_span(self, name: str, parent_id: int | None, t0: float,
                  attrs: dict[str, Any]) -> Span | None:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return None
            sp = Span(self._next_id, parent_id, name, t0,
                      pid=os.getpid(), tid=threading.get_ident(),
                      attrs=attrs)
            self._next_id += 1
            self.spans.append(sp)
            return sp

    def add_span(self, name: str, t0: float, t1: float, *,
                 parent_id: int | None = None,
                 **attrs: Any) -> Span | None:
        """Attach an already-timed interval (post-hoc spans: queue wait
        measured at completion, executor chunks timed in pool threads)."""
        sp = self._new_span(name, parent_id, t0, attrs)
        if sp is not None:
            sp.t1 = t1
        return sp

    # -- export -------------------------------------------------------- #
    def t_start(self) -> float | None:
        """Earliest span start (perf_counter axis), ``None`` if span-less."""
        with self._lock:
            return min((sp.t0 for sp in self.spans), default=None)

    def duration(self) -> float:
        """Wall seconds from the earliest span start to the latest end."""
        with self._lock:
            if not self.spans:
                return 0.0
            return max(0.0, (max(sp.t1 for sp in self.spans)
                             - min(sp.t0 for sp in self.spans)))

    def find(self, name: str) -> list[Span]:
        with self._lock:
            return [sp for sp in self.spans if sp.name == name]

    def seconds(self, name: str) -> float:
        """Total seconds spent in spans of ``name`` (derived-stats hook)."""
        return sum(sp.seconds for sp in self.find(name))

    def chrome(self) -> dict[str, Any]:
        """Chrome ``traceEvents`` JSON (open in Perfetto/chrome://tracing)."""
        with self._lock:
            spans = list(self.spans)
        if not spans:
            return {"traceEvents": [], "displayTimeUnit": "ms",
                    "otherData": {"trace_id": self.trace_id, **self.attrs}}
        origin = min(sp.t0 for sp in spans)
        # stable small tids per (pid, native tid) for readable rows
        tids: dict[tuple[int, int], int] = {}
        events = []
        for sp in spans:
            tid = tids.setdefault((sp.pid, sp.tid), len(tids))
            events.append({
                "name": sp.name, "ph": "X", "cat": "repro",
                "ts": round((sp.t0 - origin) * 1e6, 3),
                "dur": round(sp.seconds * 1e6, 3),
                "pid": sp.pid, "tid": tid,
                "args": {**sp.attrs, "span_id": sp.span_id,
                         "parent_id": sp.parent_id},
            })
        meta = [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": f"pid {pid} / thread {tid}"}}
                for (pid, _), tid in tids.items()]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms",
                "otherData": {"trace_id": self.trace_id, **self.attrs}}


@dataclass
class _Ctx:
    record: TraceRecord
    parent_id: int | None


_CURRENT: contextvars.ContextVar[_Ctx | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None)


def current_record() -> TraceRecord | None:
    """The record the calling context is tracing into, if any. Executor
    call-sites capture this *before* fanning out to pool threads (which do
    not inherit the context) and attach chunk spans via ``add_span``."""
    ctx = _CURRENT.get()
    return ctx.record if ctx is not None else None


# --------------------------------------------------------------------- #
# open-span table for the sampling profiler (repro.obs.profile)
#
# ``None`` whenever no profiler is attached, so the per-span cost in normal
# operation is one global load and a None check. While a span-scoped
# profiler runs, the table maps thread ident -> stack of open span names;
# the sampler thread snapshots it to decide which threads' stacks to
# attribute (and to which span).
# --------------------------------------------------------------------- #
_OPEN_SPANS: dict[int, list[str]] | None = None
_OPEN_SPANS_LOCK = threading.Lock()


def _profile_attach() -> None:
    global _OPEN_SPANS
    with _OPEN_SPANS_LOCK:
        _OPEN_SPANS = {}


def _profile_detach() -> None:
    global _OPEN_SPANS
    with _OPEN_SPANS_LOCK:
        _OPEN_SPANS = None


def _profile_snapshot() -> dict[int, tuple[str, ...]]:
    with _OPEN_SPANS_LOCK:
        table = _OPEN_SPANS
        return ({tid: tuple(names) for tid, names in table.items()}
                if table is not None else {})


def _profile_push(name: str) -> None:
    table = _OPEN_SPANS
    if table is None:
        return
    with _OPEN_SPANS_LOCK:
        if _OPEN_SPANS is not None:
            _OPEN_SPANS.setdefault(threading.get_ident(), []).append(name)


def _profile_pop() -> None:
    table = _OPEN_SPANS
    if table is None:
        return
    with _OPEN_SPANS_LOCK:
        if _OPEN_SPANS is not None:
            stack = _OPEN_SPANS.get(threading.get_ident())
            if stack:
                stack.pop()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Record a nested interval in the active trace; no-op outside one."""
    ctx = _CURRENT.get()
    if ctx is None:
        yield None
        return
    sp = ctx.record._new_span(name, ctx.parent_id, time.perf_counter(),
                              dict(attrs))
    if sp is None:  # record full — still run the body
        yield None
        return
    token = _CURRENT.set(_Ctx(ctx.record, sp.span_id))
    if _OPEN_SPANS is not None:
        _profile_push(name)
        popped = True
    else:
        popped = False
    try:
        yield sp
    except BaseException as exc:
        sp.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        sp.t1 = time.perf_counter()
        _CURRENT.reset(token)
        if popped:
            _profile_pop()


@contextmanager
def capture(trace_id: str = "local", *,
            max_spans: int = 4096) -> Iterator[TraceRecord]:
    """Activate a standalone record (offline captures, tests)."""
    rec = TraceRecord(trace_id, max_spans=max_spans)
    token = _CURRENT.set(_Ctx(rec, None))
    try:
        yield rec
    finally:
        _CURRENT.reset(token)


class Tracer:
    """Bounded ring of per-request trace records.

    ``capacity`` bounds retention (oldest trace evicted first) and
    ``max_spans`` bounds each record, so a long-lived server's tracer
    memory is O(capacity × max_spans) regardless of traffic. Disabled
    tracers (``enabled=False``) activate nothing: every ``span()`` under
    them is the no-op path, which is what the overhead bench compares.
    """

    def __init__(self, *, capacity: int = 256, max_spans: int = 4096,
                 enabled: bool = True):
        self.capacity = capacity
        self.max_spans = max_spans
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: OrderedDict[str, TraceRecord] = OrderedDict()

    @contextmanager
    def trace(self, trace_id: str, **attrs: Any) -> Iterator[TraceRecord | None]:
        """Open (and retain) a record for ``trace_id``; spans opened in the
        body — at any call depth — nest into it."""
        if not self.enabled:
            yield None
            return
        rec = TraceRecord(trace_id, max_spans=self.max_spans, attrs=attrs)
        with self._lock:
            self._records[trace_id] = rec
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
        token = _CURRENT.set(_Ctx(rec, None))
        try:
            yield rec
        finally:
            _CURRENT.reset(token)

    def get(self, trace_id: str) -> TraceRecord | None:
        with self._lock:
            return self._records.get(trace_id)

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def summaries(self) -> list[dict[str, Any]]:
        """One scannable dict per retained record, in retention order:
        trace id, duration, start offset (seconds after the oldest retained
        record began), and whatever outcome attrs the engine stamped
        (``tier``, ``outcome``, ``kernel_tier``, ...) — the ``/traces``
        listing, readable without fetching every flame view."""
        with self._lock:
            records = list(self._records.values())
        starts = [rec.t_start() for rec in records]
        origin = min((t for t in starts if t is not None), default=0.0)
        out = []
        for rec, t0 in zip(records, starts):
            entry: dict[str, Any] = {
                "id": rec.trace_id,
                "seconds": round(rec.duration(), 6),
                "start_offset": (round(t0 - origin, 6)
                                 if t0 is not None else None),
                "spans": len(rec.spans),
            }
            for k in ("tier", "kernel_tier", "outcome", "tag", "algorithm"):
                if k in rec.attrs:
                    entry[k] = rec.attrs[k]
            out.append(entry)
        return out

    def export(self, trace_id: str) -> dict[str, Any] | None:
        rec = self.get(trace_id)
        return rec.chrome() if rec is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
