"""Dependency-free metrics registry with Prometheus text exposition.

The serving stack needs one place where counts and timings accumulate —
request totals, per-phase seconds, cache hit/miss outcomes, queue depth,
per-chunk kernel times — and one wire format to get them out. This module provides exactly three instrument kinds, modelled on
the Prometheus client data model but with no third-party dependency:

* :class:`Counter` — monotonically increasing totals, optionally labelled
  (``registry.counter("repro_cache_requests_total", ..., labels=("cache",
  "outcome"))`` then ``c.inc(cache="result", outcome="hit")``);
* :class:`Gauge` — a value that goes up and down (queue depth, in-flight
  requests);
* :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``,
  for latencies and per-chunk kernel timings.

:meth:`MetricsRegistry.render` emits the standard Prometheus text format
(``# HELP`` / ``# TYPE`` / samples, histogram ``_bucket{le=...}`` series
ending in ``+Inf``). :func:`parse_exposition` is the inverse used by tests
and ``tools/check_metrics.py`` to validate that output strictly — names,
label syntax, bucket monotonicity — without pulling in a real Prometheus
parser.

Histograms additionally carry **trace exemplars**: when an observation is
made inside an active trace (:func:`repro.obs.trace.current_record`), the
trace id is retained against the bucket the observation landed in —
bounded (one exemplar per bucket per label set), latest-wins — and emitted
in OpenMetrics exemplar syntax (``... 42 # {trace_id="r000007"} 0.0031
<unix ts>``) so a latency bucket on ``/metrics`` names a concrete retained
trace to open in Perfetto. ``/slo`` surfaces the same exemplars for the
buckets that breach an objective (:mod:`repro.obs.slo`).

:func:`chunk_observer` is the context hook the engine uses to record
per-chunk kernel timings (``repro_chunk_seconds``) directly at the runner
call sites, so those families populate even with tracing disabled.

Registries are cheap; the engine and server each bind one (usually shared)
rather than mutating process-global state, so tests that build dozens of
engines in one process never cross-contaminate.
"""

from __future__ import annotations

import bisect
import contextvars
import math
import re
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping

from .trace import current_record

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "CHUNK_BUCKETS",
    "parse_exposition",
    "chunk_observer",
    "current_chunk_observer",
]

#: request/phase latency buckets (seconds) — spans ~0.1 ms to 10 s, the
#: range result-cache hits through large computed products occupy
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                   0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: per-chunk kernel timing buckets (seconds) — chunks are sized to cache
#: budgets, so they cluster well under the request-level range
CHUNK_BUCKETS = (0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                 0.01, 0.025, 0.05, 0.1, 0.25)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus expects (no exponent-less
    float noise: integers print bare, everything else via repr)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labelstr(names: tuple[str, ...], values: tuple[str, ...],
              extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*zip(names, values), *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt_exemplar(slot: tuple | None) -> str:
    """OpenMetrics exemplar suffix for a ``_bucket`` sample line:
    `` # {trace_id="r000007"} 0.0031 1700000000.123`` (empty when the
    bucket has never retained one)."""
    if slot is None:
        return ""
    trace_id, value, ts = slot
    return f' # {{trace_id="{_escape(trace_id)}"}} {_fmt(value)} {ts:.3f}'


class _Metric:
    """Shared label-family plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Iterable[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labels = tuple(labels)
        for ln in self.labels:
            if not _LABEL_RE.match(ln) or ln == "le":
                raise ValueError(f"invalid label name: {ln!r}")
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labelvalues: Mapping[str, object]) -> tuple[str, ...]:
        if set(labelvalues) != set(self.labels):
            raise ValueError(
                f"{self.name}: expected labels {self.labels}, "
                f"got {tuple(labelvalues)}")
        return tuple(str(labelvalues[ln]) for ln in self.labels)


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labelvalues: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labelvalues)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labelvalues: object) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labelvalues), 0.0))

    def total(self) -> float:
        """Sum across every label combination (handy for derived stats)."""
        with self._lock:
            return float(sum(self._samples.values()))

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted(self._samples.items())
        return [f"{self.name}{_labelstr(self.labels, key)} {_fmt(v)}"
                for key, v in items]


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labelvalues: object) -> None:
        self.inc(-amount, **labelvalues)

    def value(self, **labelvalues: object) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labelvalues), 0.0))

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted(self._samples.items())
        return [f"{self.name}{_labelstr(self.labels, key)} {_fmt(v)}"
                for key, v in items]


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help: str, labels: Iterable[str] = (),
                 buckets: Iterable[float] = LATENCY_BUCKETS):
        super().__init__(name, help, labels)
        bs = tuple(float(b) for b in buckets)
        if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.buckets = bs

    def observe(self, value: float, **labelvalues: object) -> None:
        rec = current_record()
        self.observe_traced(value, rec.trace_id if rec is not None else None,
                            **labelvalues)

    def observe_traced(self, value: float, trace_id: str | None,
                       **labelvalues: object) -> None:
        """Observe with an explicit exemplar trace id (or ``None``). Call
        sites that run outside the trace context — executor pool threads,
        the coordinator's chunk-timing feed — pass the id they captured on
        the submitting thread; :meth:`observe` resolves it implicitly."""
        key = self._key(labelvalues)
        # bucket index the observation lands in; len(buckets) means +Inf
        idx = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                # sum, count, per-bucket (non-cumulative; cumulated on
                # render), one exemplar slot per bucket + one for +Inf
                state = [0.0, 0, [0] * len(self.buckets),
                         [None] * (len(self.buckets) + 1)]
                self._samples[key] = state
            state[0] += float(value)
            state[1] += 1
            if idx < len(self.buckets):
                state[2][idx] += 1
            # values above the top bucket only land in +Inf (the count)
            if trace_id:
                state[3][idx] = (str(trace_id), float(value), time.time())

    def count(self, **labelvalues: object) -> int:
        with self._lock:
            state = self._samples.get(self._key(labelvalues))
            return int(state[1]) if state else 0

    def sum(self, **labelvalues: object) -> float:
        with self._lock:
            state = self._samples.get(self._key(labelvalues))
            return float(state[0]) if state else 0.0

    def total_sum(self) -> float:
        with self._lock:
            return float(sum(s[0] for s in self._samples.values()))

    def total_count(self) -> int:
        with self._lock:
            return int(sum(s[1] for s in self._samples.values()))

    def bucket_counts(self, **labelvalues: object) -> list[int]:
        """Cumulative counts per bucket boundary, ending with +Inf == count."""
        with self._lock:
            state = self._samples.get(self._key(labelvalues))
            if state is None:
                return [0] * (len(self.buckets) + 1)
            out, acc = [], 0
            for c in state[2]:
                acc += c
                out.append(acc)
            out.append(int(state[1]))
            return out

    # -- objective/exemplar views (repro.obs.slo) ----------------------- #
    def le_bound(self, value: float) -> float:
        """The bucket bound a ≤-threshold snaps to: the smallest bound
        ≥ ``value``, or ``+Inf`` when ``value`` exceeds the top bucket."""
        idx = bisect.bisect_left(self.buckets, float(value))
        return self.buckets[idx] if idx < len(self.buckets) else math.inf

    def count_le(self, value: float) -> int:
        """Observations ≤ :meth:`le_bound`, summed across every label set
        (the "good event" count for a latency objective)."""
        idx = bisect.bisect_left(self.buckets, float(value))
        with self._lock:
            if idx >= len(self.buckets):
                return int(sum(s[1] for s in self._samples.values()))
            return int(sum(sum(s[2][:idx + 1])
                           for s in self._samples.values()))

    def exemplars(self, **labelvalues: object) -> dict[float, tuple]:
        """Retained exemplars for one label set, keyed by bucket bound
        (``math.inf`` for +Inf): ``{bound: (trace_id, value, unix_ts)}``."""
        with self._lock:
            state = self._samples.get(self._key(labelvalues))
            slots = list(state[3]) if state is not None else []
        bounds = (*self.buckets, math.inf)
        return {bounds[i]: ex for i, ex in enumerate(slots)
                if ex is not None}

    def exemplars_above(self, value: float) -> list[tuple]:
        """Exemplars from buckets strictly above :meth:`le_bound` — the
        observations that *violated* a ≤-``value`` objective — across all
        label sets, newest first."""
        idx = bisect.bisect_left(self.buckets, float(value))
        out: list[tuple] = []
        with self._lock:
            for state in self._samples.values():
                out.extend(ex for ex in state[3][idx + 1:] if ex is not None)
        out.sort(key=lambda ex: ex[2], reverse=True)
        return out

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted((k, (s[0], s[1], list(s[2]), list(s[3])))
                           for k, s in self._samples.items())
        lines: list[str] = []
        for key, (total, count, per_bucket, slots) in items:
            acc = 0
            for i, (ub, c) in enumerate(zip(self.buckets, per_bucket)):
                acc += c
                lines.append(
                    f"{self.name}_bucket"
                    f"{_labelstr(self.labels, key, (('le', _fmt(ub)),))}"
                    f" {acc}{_fmt_exemplar(slots[i])}")
            lines.append(
                f"{self.name}_bucket"
                f"{_labelstr(self.labels, key, (('le', '+Inf'),))} {count}"
                f"{_fmt_exemplar(slots[-1])}")
            lines.append(
                f"{self.name}_sum{_labelstr(self.labels, key)} {_fmt(total)}")
            lines.append(
                f"{self.name}_count{_labelstr(self.labels, key)} {count}")
        return lines


class MetricsRegistry:
    """Create-or-get instrument families and render them as one exposition.

    ``counter``/``gauge``/``histogram`` are idempotent per name: asking for
    an existing family returns it (with a kind/label check), so wiring code
    in different modules can declare the instruments it uses without a
    central manifest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_make(self, cls, name, help, labels, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or \
                        existing.labels != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        f"kind or label set")
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> Counter:
        return self._get_or_make(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> Gauge:
        return self._get_or_make(Gauge, name, help, tuple(labels))

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_make(Histogram, name, help, tuple(labels),
                                 buckets=tuple(buckets))

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        out: list[str] = []
        for m in metrics:
            samples = m.collect()
            if not samples:
                continue
            if m.help:
                out.append(f"# HELP {m.name} {_escape(m.help)}")
            out.append(f"# TYPE {m.name} {m.kind}")
            out.extend(samples)
        return "\n".join(out) + "\n" if out else ""


# --------------------------------------------------------------------- #
# exposition parsing (tests + tools/check_metrics.py)
# --------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?:\s+#\s+\{(?P<exlabels>[^}]*)\}"
    r"\s+(?P<exvalue>[^\s]+)(?:\s+(?P<exts>[^\s]+))?)?"
    r"\s*$")
_LABELPAIR_RE = re.compile(
    r'^(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:[^"\\]|\\.)*)"$')


def parse_exposition(
        text: str, *, return_exemplars: bool = False,
) -> dict[str, dict[tuple, float]] | tuple[dict, dict]:
    """Strictly parse Prometheus text exposition into
    ``{name: {(label pairs sorted): value}}``.

    Raises ``ValueError`` on any malformed line, unknown TYPE, sample for a
    name with no preceding TYPE, or a histogram whose cumulative bucket
    counts decrease — strict enough that passing it is meaningful in CI.

    OpenMetrics exemplar suffixes (`` # {trace_id="..."} value [ts]``) are
    accepted on histogram ``_bucket`` samples only, and validated: the
    exemplar labelset must parse, its value and optional timestamp must be
    floats. With ``return_exemplars=True`` the result is a pair
    ``(samples, exemplars)`` where exemplars maps
    ``{name: {(label pairs sorted): ((exemplar pairs sorted), value, ts)}}``.
    """
    types: dict[str, str] = {}
    samples: dict[str, dict[tuple, float]] = {}
    exemplars: dict[str, dict[tuple, tuple]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name, rawlabels, rawvalue = (m.group("name"), m.group("labels"),
                                     m.group("value"))
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in types and base not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        labels = _parse_labelpairs(rawlabels, lineno)
        try:
            value = float(rawvalue.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {rawvalue!r}") from None
        key = tuple(sorted(labels))
        samples.setdefault(name, {})[key] = value
        if m.group("exlabels") is not None:
            if not (name.endswith("_bucket")
                    and types.get(base) == "histogram"):
                raise ValueError(
                    f"line {lineno}: exemplar on non-bucket sample {name!r}")
            expairs = _parse_labelpairs(m.group("exlabels"), lineno)
            try:
                exvalue = float(m.group("exvalue"))
                exts = (float(m.group("exts"))
                        if m.group("exts") is not None else None)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad exemplar value/timestamp: "
                    f"{line!r}") from None
            exemplars.setdefault(name, {})[key] = (
                tuple(sorted(expairs)), exvalue, exts)
    _check_bucket_monotonicity(types, samples)
    return (samples, exemplars) if return_exemplars else samples


def _parse_labelpairs(rawlabels: str | None,
                      lineno: int) -> list[tuple[str, str]]:
    labels: list[tuple[str, str]] = []
    if rawlabels:
        for pair in _split_labelpairs(rawlabels, lineno):
            pm = _LABELPAIR_RE.match(pair)
            if not pm:
                raise ValueError(f"line {lineno}: bad label pair {pair!r}")
            labels.append((pm.group("k"), pm.group("v")))
    return labels


def _split_labelpairs(raw: str, lineno: int) -> list[str]:
    """Split ``k1="v1",k2="v2"`` respecting escaped quotes inside values."""
    pairs, buf, in_str, esc = [], [], False, False
    for ch in raw:
        if esc:
            buf.append(ch)
            esc = False
        elif ch == "\\" and in_str:
            buf.append(ch)
            esc = True
        elif ch == '"':
            buf.append(ch)
            in_str = not in_str
        elif ch == "," and not in_str:
            pairs.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if in_str:
        raise ValueError(f"line {lineno}: unterminated label value")
    if buf:
        pairs.append("".join(buf))
    return pairs


# --------------------------------------------------------------------- #
# chunk-timing observer (call-site recording for repro_chunk_seconds)
# --------------------------------------------------------------------- #
_CHUNK_OBSERVER: contextvars.ContextVar[Callable | None] = \
    contextvars.ContextVar("repro_chunk_observer", default=None)


def current_chunk_observer() -> Callable | None:
    """The chunk-timing sink installed by the engine for the current
    request: ``fn(seconds, kernel, phase)``. Like the trace record, pool
    threads do not inherit it — runner call sites capture it on the
    submitting thread before fanning out."""
    return _CHUNK_OBSERVER.get()


@contextmanager
def chunk_observer(fn: Callable | None) -> Iterator[None]:
    """Install ``fn`` as the chunk-timing sink for the calling context.
    The engine wraps each request in this so ``repro_chunk_seconds`` is
    recorded where the chunk runs, tracing on or off."""
    token = _CHUNK_OBSERVER.set(fn)
    try:
        yield
    finally:
        _CHUNK_OBSERVER.reset(token)


def _check_bucket_monotonicity(types: dict[str, str],
                               samples: dict[str, dict[tuple, float]]) -> None:
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{name}_bucket", {})
        series: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in buckets.items():
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(f"{name}_bucket sample missing le label")
            rest = tuple(p for p in labels if p[0] != "le")
            series.setdefault(rest, []).append((float(le), value))
        for rest, pts in series.items():
            pts.sort()
            counts = [v for _, v in pts]
            if any(b < a for a, b in zip(counts, counts[1:])):
                raise ValueError(
                    f"{name}_bucket{dict(rest)}: cumulative counts decrease")
