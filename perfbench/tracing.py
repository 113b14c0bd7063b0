"""Span recording for the traced run: timing shims around the stack's layers.

The shims are installed at run time by monkeypatching the public entry
points of each layer (nothing under ``src/`` is edited) and removed again
afterwards. Every span records its layer, name, start, end, parent span and
the op it belongs to; spans stay in memory until the run ends and are then
reduced to per-layer metrics by :func:`layer_metrics`.

Layers and the calls that open their spans:

=========  ==============================================================
server     ``AsyncServer.submit``
engine     ``Engine.submit``, ``Engine.multiply``
api        ``masked_spgemm`` as called by the engine and by betweenness
plan       ``build_plan``, ``splice_plan``, every ``AlgorithmSpec.symbolic``
registry   ``registry.auto_select``
runner     ``parallel_masked_spgemm``
kernel     ``AlgorithmSpec.numeric`` / ``numeric_into``
delta      ``Engine.apply_delta``, ``DeltaBatch.apply``
ops        public functions called through the ``repro.sparse.ops`` module
trace      the shims' own bookkeeping (kernel flop and byte counts)
=========  ==============================================================

A span opened while no op is active (set-up, the oracle, the untraced
phase) is not recorded: the shim calls straight through.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

#: layers in request-path order; ``op`` (the harness root) is not a layer
LAYERS = ("server", "engine", "api", "plan", "registry", "runner", "kernel",
          "delta", "ops", "trace")

#: kernel keys reported one by one (``kernel.<key>.*``, ``registry.route.<key>``)
KERNEL_KEYS = ("esc", "msa", "hash", "heap", "inner", "msa-loop",
               "msa-native", "hash-native")

#: accumulator model in ``perfmodel.traffic`` used for each routing key
_TRAFFIC_MODEL = {"msa-native": "msa", "hash-native": "hash",
                  "msa-loop": "msa"}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    __slots__ = ("layer", "name", "t0", "t1", "parent", "op", "kind", "attrs")

    def __init__(self, layer, name, parent, t0=None, kind=None):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = parent.op if parent is not None else self
        self.kind = kind
        self.t0 = time.perf_counter() if t0 is None else t0
        self.t1 = None
        self.attrs = {}

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class Recorder:
    """In-memory span store. The harness opens each op's root span (parent
    ``None``); shims attach child spans to whatever span is current in the
    calling context, or to the span registered for a request object (the
    async server hands a request to a worker thread, which does not inherit
    the caller's context)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.by_request: dict[int, Span] = {}

    def open(self, layer, name, parent, kind=None, t0=None) -> Span:
        span = Span(layer, name, parent, t0=t0, kind=kind)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def ops(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]


def set_current(span):
    return _CURRENT.set(span)


def reset_current(token) -> None:
    _CURRENT.reset(token)


def _self_ms(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it its children cover (interval
    union, clipped to the span)."""
    ivs = sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.t1 - span.t0 - covered) * 1e3


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Self time (ms) of every span in ``spans``."""
    children: dict[Span, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s: _self_ms(s, children.get(s, [])) for s in spans}


# --------------------------------------------------------------------- #
# shims
# --------------------------------------------------------------------- #
def _rows_work(key, A, B, mask, rows) -> tuple[int, float]:
    """Flops (2 per partial product) and model bytes of one kernel call
    over ``rows``. Bytes come from ``repro.perfmodel.traffic`` applied to
    the row slice: computed, not measured."""
    from repro.core.expand import concat_ranges
    from repro.perfmodel.traffic import push_traffic, total_traffic
    from repro.sparse.csr import CSRMatrix

    rows = np.asarray(rows, dtype=np.int64)

    def row_slice(indptr, indices, ncols):
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        cols = indices[concat_ranges(starts, lens)]
        ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        return CSRMatrix(ptr, cols, np.zeros(cols.size), (rows.size, ncols),
                         check=False)

    a_sub = row_slice(A.indptr, A.indices, A.ncols)
    m_sub = row_slice(mask.indptr, mask.indices, mask.ncols)
    flops = int(np.diff(B.indptr)[a_sub.indices].sum()) if a_sub.nnz else 0
    model = _TRAFFIC_MODEL.get(key, key)
    if model == "esc":  # no accumulator model: patterns 1-3 and 5 only
        words = push_traffic(a_sub, B, m_sub)
    else:
        words = total_traffic(model, a_sub, B, m_sub).words
    return 2 * flops, 8.0 * words


class Shims:
    """Context manager installing every timing shim on enter and restoring
    the original attributes on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []
        self._specs: dict[str, object] = {}

    # -- patch plumbing ------------------------------------------------- #
    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span_call(self, fn, layer, name, *, parent_of=None, post=None):
        rec = self.rec

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = parent_of(args, kwargs) if parent_of else None
            if parent is None:
                parent = _CURRENT.get()
            if parent is None:
                return fn(*args, **kwargs)
            span = rec.open(layer, name, parent)
            token = _CURRENT.set(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                _CURRENT.reset(token)
            if post is not None:
                post(span, args, kwargs, out)
            return out

        return shim

    def _bookkeeping(self, parent, fn) -> None:
        """Run harness bookkeeping under a ``trace`` span so its time is
        attributed to the tracer, not to the enclosing layer."""
        span = self.rec.open("trace", "trace.bookkeeping", parent)
        try:
            fn()
        finally:
            span.t1 = time.perf_counter()

    # -- per-layer post hooks ------------------------------------------- #
    def _engine_post(self, span, args, kwargs, resp):
        st = resp.stats
        span.attrs.update(
            plan_ms=st.plan_seconds * 1e3, numeric_ms=st.numeric_seconds * 1e3,
            plan_hit=st.plan_cache_hit, result_hit=st.result_cache_hit,
            planned=st.planned)
        if span.name == "engine.submit":
            algorithm = args[1].algorithm
        else:
            algorithm = kwargs.get("algorithm", "auto")
        # routing decided by a cached plan (no fresh auto_select call)
        if (algorithm == "auto" and st.algorithm
                and (st.plan_cache_hit or st.result_cache_hit)):
            span.attrs["route"] = st.algorithm

    def _delta_post(self, span, args, kwargs, outcome):
        span.attrs.update(dirty_rows=outcome.dirty_rows,
                          plans_spliced=outcome.plans_spliced,
                          results_patched=outcome.results_patched)

    def _route_post(self, span, args, kwargs, key):
        span.attrs["route"] = key

    def _spec(self, spec):
        """A copy of ``spec`` whose kernels open plan/kernel spans."""
        cached = self._specs.get(spec.key)
        if cached is not None and cached[0] is spec:
            return cached[1]
        key = spec.key

        def symbolic_post(span, args, kwargs, out):
            span.attrs["rows"] = int(np.asarray(args[3]).size)

        def kernel_post(span, args, kwargs, out):
            A, B, mask, _sr, rows = args[:5]

            def count():
                span.attrs["flops"], span.attrs["bytes"] = _rows_work(
                    key, A, B, mask, rows)
            self._bookkeeping(span.parent, count)

        changes = {"symbolic": self._span_call(
            spec.symbolic, "plan", "plan.symbolic", post=symbolic_post)}
        changes["numeric"] = self._span_call(
            spec.numeric, "kernel", f"kernel.{key}", post=kernel_post)
        if spec.numeric_into is not None:
            changes["numeric_into"] = self._span_call(
                spec.numeric_into, "kernel", f"kernel.{key}", post=kernel_post)
        shimmed = dataclasses.replace(spec, **changes)
        self._specs[spec.key] = (spec, shimmed)
        return shimmed

    # -- install / restore ---------------------------------------------- #
    def __enter__(self) -> "Shims":
        import repro.algorithms.betweenness as bc_mod
        import repro.core.plan as plan_mod
        import repro.core.registry as registry
        import repro.parallel.runner as runner
        import repro.service.engine as engine_mod
        import repro.sparse.ops as ops_mod
        from repro.delta import DeltaBatch
        from repro.service import AsyncServer, Engine

        rec = self.rec
        span_call = self._span_call

        def server_submit(fn):
            @functools.wraps(fn)
            async def shim(srv, request):
                parent = _CURRENT.get()
                if parent is None:
                    return await fn(srv, request)
                span = rec.open("server", "server.submit", parent)
                token = _CURRENT.set(span)
                rec.by_request[id(request)] = span
                try:
                    resp = await fn(srv, request)
                finally:
                    span.t1 = time.perf_counter()
                    rec.by_request.pop(id(request), None)
                    _CURRENT.reset(token)
                span.attrs["queued_ms"] = resp.stats.queued_seconds * 1e3
                return resp
            return shim

        def request_parent(args, kwargs):
            return rec.by_request.get(id(args[1])) if len(args) > 1 else None

        self._patch(AsyncServer, "submit", server_submit)
        self._patch(Engine, "submit", lambda fn: span_call(
            fn, "engine", "engine.submit", parent_of=request_parent,
            post=self._engine_post))
        self._patch(Engine, "multiply", lambda fn: span_call(
            fn, "engine", "engine.multiply", post=self._engine_post))
        self._patch(Engine, "apply_delta", lambda fn: span_call(
            fn, "delta", "delta.apply_delta", post=self._delta_post))
        self._patch(DeltaBatch, "apply", lambda fn: span_call(
            fn, "delta", "delta.batch_apply"))
        for owner in (plan_mod, engine_mod):
            self._patch(owner, "splice_plan", lambda fn: span_call(
                fn, "plan", "plan.splice"))
            self._patch(owner, "build_plan", lambda fn: span_call(
                fn, "plan", "plan.build"))
        self._patch(registry, "auto_select", lambda fn: span_call(
            fn, "registry", "registry.auto_select", post=self._route_post))
        self._patch(registry, "get_spec", lambda fn: functools.wraps(fn)(
            lambda key: self._spec(fn(key))))
        self._patch(runner, "parallel_masked_spgemm", lambda fn: span_call(
            fn, "runner", "runner.parallel_masked_spgemm"))
        for owner in (engine_mod, bc_mod):
            self._patch(owner, "masked_spgemm", lambda fn: span_call(
                fn, "api", "api.masked_spgemm"))
        for name, fn in list(vars(ops_mod).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == ops_mod.__name__):
                self._patch(ops_mod, name, lambda f, n=name: span_call(
                    f, "ops", f"ops.{n}"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------- #
# reduction to per-layer metrics
# --------------------------------------------------------------------- #
def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def _per_op_mean(per_op: dict[Span, float], ops: list[Span]) -> float:
    """Mean over op kinds of the mean over that kind's ops, so a run that
    completes more ops of one kind than another still reports the same
    per-op counts."""
    by_kind: dict = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(per_op.get(op, 0.0))
    if not by_kind:
        return 0.0
    return float(np.mean([np.mean(v) for v in by_kind.values()]))


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metric catalogue (see
    README.md). ``.sum`` values are summed within an op and averaged over
    ops; ``.pNN`` values are percentiles over individual calls."""
    ops = rec.ops()
    spans = rec.spans
    self_ms = self_times(spans)
    op_sum: dict[str, dict[Span, float]] = defaultdict(
        lambda: defaultdict(float))
    calls: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is None:
            op_sum["op.wall"][s] += s.ms
            op_sum["unattributed"][s] += self_ms[s]
            continue
        op_sum[f"{s.layer}.self"][s.op] += self_ms[s]
        calls[s.name].append(s)
        outermost = s.parent.layer != s.layer
        if outermost:
            op_sum[f"{s.layer}.busy"][s.op] += s.ms
        if s.layer == "kernel":
            key = s.name.split(".", 1)[1]
            op_sum["kernel.calls"][s.op] += 1
            op_sum[f"kernel.{key}.calls"][s.op] += 1
            op_sum[f"kernel.{key}.busy"][s.op] += s.ms
            op_sum["kernel.flops"][s.op] += s.attrs.get("flops", 0)
            op_sum["kernel.bytes"][s.op] += s.attrs.get("bytes", 0)
            op_sum[f"kernel.{key}.flops"][s.op] += s.attrs.get("flops", 0)
            if s.parent.layer == "runner":
                op_sum["runner.chunks"][s.op] += 1
        elif s.name == "plan.symbolic":
            op_sum["plan.symbolic_ms"][s.op] += s.ms
            op_sum["plan.symbolic_rows"][s.op] += s.attrs.get("rows", 0)
            if s.parent.layer == "runner":
                op_sum["runner.chunks"][s.op] += 1
        elif s.name == "plan.splice":
            op_sum["plan.splice_ms"][s.op] += s.ms
        elif s.name == "delta.apply_delta":
            for k in ("dirty_rows", "plans_spliced", "results_patched"):
                op_sum[f"delta.{k}"][s.op] += s.attrs.get(k, 0)
        if "route" in s.attrs:
            op_sum[f"registry.route.{s.attrs['route']}"][s.op] += 1
        if s.layer == "engine":
            op_sum["engine.calls"][s.op] += 1

    def per_op(name):
        return _per_op_mean(op_sum.get(name, {}), ops)

    engine_calls = calls["engine.submit"] + calls["engine.multiply"]
    planned = [s for s in engine_calls
               if s.attrs.get("planned") and not s.attrs.get("result_hit")]
    server = calls["server.submit"]
    engine_by_parent = {s.parent: s for s in calls["engine.submit"]
                        if s.parent.layer == "server"}
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms.sum"] = per_op(f"{layer}.self")
    wait = [s.ms - engine_by_parent[s].ms for s in server
            if s in engine_by_parent]
    m["server.wait_ms.p50"] = percentile(wait, 50)
    m["server.wait_ms.p90"] = percentile(wait, 90)
    m["server.queued_ms.p50"] = percentile(
        [s.attrs.get("queued_ms", 0.0) for s in server], 50)
    m["engine.calls"] = per_op("engine.calls")
    m["engine.busy_ms.p50"] = percentile([s.ms for s in engine_calls], 50)
    m["engine.overhead_ms.p50"] = percentile(
        [s.ms - s.attrs.get("plan_ms", 0.0) - s.attrs.get("numeric_ms", 0.0)
         for s in engine_calls], 50)
    m["engine.plan_hit_ratio"] = (
        sum(bool(s.attrs.get("plan_hit")) for s in planned) / len(planned)
        if planned else 0.0)
    m["engine.result_hit_ratio"] = (
        sum(bool(s.attrs.get("result_hit")) for s in engine_calls)
        / len(engine_calls) if engine_calls else 0.0)
    m["plan.symbolic_ms.sum"] = per_op("plan.symbolic_ms")
    m["plan.symbolic_rows"] = per_op("plan.symbolic_rows")
    m["plan.splice_ms.sum"] = per_op("plan.splice_ms")
    m["registry.auto_select_us.p50"] = 1e3 * percentile(
        [s.ms for s in calls["registry.auto_select"]], 50)
    for key in KERNEL_KEYS:
        m[f"registry.route.{key}"] = per_op(f"registry.route.{key}")
    m["runner.busy_ms.sum"] = per_op("runner.busy")
    m["runner.chunks"] = per_op("runner.chunks")
    m["runner.dispatch_ms.sum"] = m["runner.self_ms.sum"]
    busy = per_op("kernel.busy")
    flops = per_op("kernel.flops")
    nbytes = per_op("kernel.bytes")
    m["kernel.busy_ms.sum"] = busy
    m["kernel.calls"] = per_op("kernel.calls")
    m["kernel.flops"] = flops
    m["kernel.bytes_computed"] = nbytes
    m["kernel.flops_per_byte"] = flops / nbytes if nbytes else 0.0
    m["kernel.gflops"] = flops / (busy * 1e6) if busy else 0.0
    for key in KERNEL_KEYS:
        m[f"kernel.{key}.busy_ms.sum"] = per_op(f"kernel.{key}.busy")
        m[f"kernel.{key}.calls"] = per_op(f"kernel.{key}.calls")
        m[f"kernel.{key}.flops"] = per_op(f"kernel.{key}.flops")
    m["delta.apply_ms.p50"] = percentile(
        [s.ms for s in calls["delta.apply_delta"]], 50)
    for k in ("dirty_rows", "plans_spliced", "results_patched"):
        m[f"delta.{k}"] = per_op(f"delta.{k}")
    m["ops.busy_ms.sum"] = per_op("ops.busy")
    m["op.wall_ms.sum"] = per_op("op.wall")
    m["unattributed_ms.sum"] = per_op("unattributed")
    # self times partition each op's wall time exactly unless sibling
    # spans overlap (they do not on these serial paths)
    m["trace.attribution_gap_ms"] = (
        sum(m[f"{layer}.self_ms.sum"] for layer in LAYERS)
        + m["unattributed_ms.sum"] - m["op.wall_ms.sum"])
    m["trace.ops"] = float(len(ops))
    return m

