"""Declarative SLOs with multi-window burn-rate alerting.

The registry answers "what happened"; this module answers "is that OK".
An :class:`SLObjective` states a target over one of the existing metric
families:

* **latency** — ``p99=50ms:0.99`` reads "99% of requests complete within
  50 ms", measured against the ``repro_request_seconds`` histogram. The
  threshold snaps to the smallest bucket bound ≥ the requested value
  (histogram state is all the evaluator keeps — no raw samples), and the
  snapped bound is reported so the objective is honest about what it
  measures.
* **availability** — ``availability=0.999`` reads "99.9% of admitted
  requests complete", measured against ``repro_server_requests_total``
  (good = ``completed``; total = ``completed`` + ``failed`` + ``shed``).

:class:`SLOEvaluator` keeps a ring of timestamped cumulative (good, total)
snapshots per objective and evaluates **burn rates** over a fast and a slow
window (5 m / 1 h by default): the fraction of the error budget consumed in
the window, normalized so burn = 1.0 means "spending budget exactly as fast
as the objective allows". An alert requires *both* windows to burn above
``alert_burn_rate`` (the classic multi-window rule: the fast window catches
the current spike, the slow window proves it is sustained — a lone warm-up
blip ages out of the fast window and clears). Windows clamp to the history
actually available, so a fresh server evaluates honestly from its first
minute.

Everything is exported twice: as ``repro_slo_*`` gauges/counters on the
same registry (so ``/metrics`` scrapes alert state like any other family)
and as the ``/slo`` JSON endpoint on the sidecar — which also surfaces the
**trace exemplars** retained by the histogram buckets *above* a latency
threshold: a burn-rate breach names the exact retained traces to open in
Perfetto.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .metrics import Histogram, MetricsRegistry
from .trace import Tracer

__all__ = ["SLObjective", "SLOEvaluator", "parse_slo"]

#: multi-window defaults: fast catches the spike, slow proves it sustained
FAST_WINDOW_SECONDS = 300.0
SLOW_WINDOW_SECONDS = 3600.0

#: default alert threshold — with a 5m/1h window pair this is the standard
#: "page now" burn (the whole 30-day budget would be gone in ~2 days)
ALERT_BURN_RATE = 14.4

_DURATION_RE = re.compile(
    r"^(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>us|µs|ms|s)?$")
_UNIT_SECONDS = {"us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}


def _parse_duration(text: str) -> float:
    m = _DURATION_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad duration {text!r} (want e.g. 50ms, 0.5s)")
    return float(m.group("num")) * _UNIT_SECONDS[m.group("unit")]


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective. ``threshold`` is in seconds and only
    meaningful for ``kind="latency"``; ``target`` is the good-event
    fraction (strictly between 0 and 1 — the error budget is ``1 -
    target``, and a target of exactly 1 has no budget to burn)."""

    name: str
    kind: str  # "latency" | "availability"
    target: float
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLO target must be in (0, 1), got {self.target!r}")
        if self.kind == "latency" and self.threshold <= 0.0:
            raise ValueError("latency SLO needs a positive threshold")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


def parse_slo(spec: str) -> SLObjective:
    """Parse one ``serve --slo`` objective spec.

    * ``p99=50ms:0.99`` — latency: name, threshold (us/ms/s), target;
    * ``availability=0.999`` — availability: target only.
    """
    text = spec.strip()
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ValueError(
            f"bad --slo spec {spec!r} (want name=<dur>:<target> "
            f"or availability=<target>)")
    if name in ("availability", "avail"):
        return SLObjective("availability", "availability",
                           target=float(rest))
    thresh, sep, target = rest.partition(":")
    if not sep:
        raise ValueError(
            f"bad --slo spec {spec!r}: latency objectives need "
            f"<duration>:<target>, e.g. {name}=50ms:0.99")
    return SLObjective(name, "latency", target=float(target),
                       threshold=_parse_duration(thresh))


class SLOEvaluator:
    """Evaluate objectives against a registry; export burn rates + alerts.

    ``evaluate()`` is cheap (reads cumulative counters under their own
    locks, appends one snapshot) and idempotent within ``min_interval`` —
    the sidecar calls it on every ``/metrics`` and ``/slo`` hit.
    ``clock`` is injectable so tests can replay a synthetic timeline.
    """

    def __init__(self, registry: MetricsRegistry,
                 objectives: list[SLObjective], *,
                 tracer: Tracer | None = None,
                 fast_window: float = FAST_WINDOW_SECONDS,
                 slow_window: float = SLOW_WINDOW_SECONDS,
                 alert_burn_rate: float = ALERT_BURN_RATE,
                 min_interval: float = 0.25,
                 max_exemplars: int = 5,
                 clock: Callable[[], float] = time.monotonic):
        if len({o.name for o in objectives}) != len(objectives):
            raise ValueError("duplicate SLO names")
        self.registry = registry
        self.objectives = list(objectives)
        self.tracer = tracer
        self.fast_window = float(fast_window)
        self.slow_window = float(slow_window)
        self.alert_burn_rate = float(alert_burn_rate)
        self.min_interval = float(min_interval)
        self.max_exemplars = int(max_exemplars)
        self._clock = clock
        self._lock = threading.Lock()
        #: per-objective deque of (t, good, total) cumulative snapshots
        self._history: dict[str, deque] = {o.name: deque()
                                           for o in objectives}
        self._alerting: dict[str, bool] = {o.name: False for o in objectives}

        self._g_target = registry.gauge(
            "repro_slo_target", "configured SLO good-event target",
            labels=("slo",))
        self._g_burn = registry.gauge(
            "repro_slo_burn_rate",
            "error-budget burn rate per evaluation window "
            "(1.0 = spending budget exactly at the sustainable rate)",
            labels=("slo", "window"))
        self._g_budget = registry.gauge(
            "repro_slo_error_budget_remaining",
            "lifetime error budget left (1.0 = untouched, <0 = overspent)",
            labels=("slo",))
        self._g_alerting = registry.gauge(
            "repro_slo_alerting",
            "1 while the multi-window burn-rate alert for this SLO fires",
            labels=("slo",))
        self._c_alerts = registry.counter(
            "repro_slo_alerts_total",
            "burn-rate alert activations (rising edges)", labels=("slo",))
        for o in objectives:
            self._g_target.set(o.target, slo=o.name)
            self._g_budget.set(1.0, slo=o.name)
            self._g_alerting.set(0.0, slo=o.name)
            self._c_alerts.inc(0.0, slo=o.name)
            for window in ("fast", "slow"):
                self._g_burn.set(0.0, slo=o.name, window=window)

    # -- cumulative good/total from the registry ------------------------ #
    def _counts(self, obj: SLObjective) -> tuple[float, float]:
        if obj.kind == "latency":
            hist = self.registry.get("repro_request_seconds")
            if not isinstance(hist, Histogram):
                return 0.0, 0.0
            return float(hist.count_le(obj.threshold)), \
                float(hist.total_count())
        ctr = self.registry.get("repro_server_requests_total")
        if ctr is None:
            return 0.0, 0.0
        good = ctr.value(outcome="completed")
        total = good + ctr.value(outcome="failed") + \
            ctr.value(outcome="shed")
        return good, total

    @staticmethod
    def _window_delta(history: deque, t: float, window: float,
                      good: float, total: float) -> tuple[float, float]:
        """(Δgood, Δtotal) against the newest snapshot at least ``window``
        old. When none is (server younger than the window), the baseline is
        process start — the counters are cumulative from zero, so the
        window honestly covers the whole lifetime instead of silently
        dropping events that landed before the first evaluation."""
        base_g = base_t = 0.0
        for snap in history:
            if snap[0] > t - window:
                break
            base_g, base_t = snap[1], snap[2]
        return good - base_g, total - base_t

    def _burn(self, obj: SLObjective, dgood: float,
              dtotal: float) -> float:
        if dtotal <= 0:
            return 0.0
        return ((dtotal - dgood) / dtotal) / obj.budget

    def _exemplars(self, obj: SLObjective) -> list[dict[str, Any]]:
        """Retained trace exemplars from the buckets above a latency
        threshold — the concrete requests that burned the budget —
        filtered to traces still resolvable at ``/trace/<id>.json``."""
        if obj.kind != "latency":
            return []
        hist = self.registry.get("repro_request_seconds")
        if not isinstance(hist, Histogram):
            return []
        out = []
        for trace_id, value, ts in hist.exemplars_above(obj.threshold):
            if self.tracer is not None and \
                    self.tracer.get(trace_id) is None:
                continue
            out.append({"trace_id": trace_id,
                        "seconds": round(value, 6),
                        "unix_time": round(ts, 3)})
            if len(out) >= self.max_exemplars:
                break
        return out

    # -- the evaluation pass -------------------------------------------- #
    def evaluate(self, now: float | None = None, *,
                 force: bool = False) -> list[dict[str, Any]]:
        """Snapshot the registry, compute window burn rates, update the
        ``repro_slo_*`` families, and return the ``/slo`` payload."""
        t = self._clock() if now is None else float(now)
        statuses: list[dict[str, Any]] = []
        with self._lock:
            for obj in self.objectives:
                good, total = self._counts(obj)
                history = self._history[obj.name]
                fresh = (force or not history
                         or t - history[-1][0] >= self.min_interval)
                windows: dict[str, dict[str, Any]] = {}
                burns: dict[str, float] = {}
                for window_name, window in (("fast", self.fast_window),
                                            ("slow", self.slow_window)):
                    dg, dt = self._window_delta(history, t, window,
                                                good, total)
                    burn = self._burn(obj, dg, dt)
                    burns[window_name] = burn
                    windows[window_name] = {
                        "seconds": window,
                        "good": dg, "total": dt,
                        "burn_rate": round(burn, 4),
                    }
                    self._g_burn.set(burn, slo=obj.name, window=window_name)
                if fresh:
                    history.append((t, good, total))
                    # retain one snapshot older than the slow window so its
                    # delta stays full-width; prune the rest
                    while len(history) >= 2 and \
                            history[1][0] <= t - self.slow_window:
                        history.popleft()

                budget_left = 1.0
                if total > 0:
                    budget_left = 1.0 - ((total - good) / total) / obj.budget
                alerting = (windows["fast"]["total"] > 0
                            and burns["fast"] >= self.alert_burn_rate
                            and burns["slow"] >= self.alert_burn_rate)
                if alerting and not self._alerting[obj.name]:
                    self._c_alerts.inc(slo=obj.name)
                self._alerting[obj.name] = alerting
                self._g_budget.set(budget_left, slo=obj.name)
                self._g_alerting.set(float(alerting), slo=obj.name)

                status: dict[str, Any] = {
                    "slo": obj.name,
                    "kind": obj.kind,
                    "target": obj.target,
                    "good": good,
                    "total": total,
                    "error_budget_remaining": round(budget_left, 4),
                    "windows": windows,
                    "alert_burn_rate": self.alert_burn_rate,
                    "alerting": alerting,
                    "exemplars": self._exemplars(obj),
                }
                if obj.kind == "latency":
                    hist = self.registry.get("repro_request_seconds")
                    snapped = (hist.le_bound(obj.threshold)
                               if isinstance(hist, Histogram)
                               else obj.threshold)
                    status["threshold_seconds"] = obj.threshold
                    status["threshold_bucket"] = (
                        None if snapped == math.inf else snapped)
                statuses.append(status)
        return statuses

    def alerting(self) -> list[dict[str, Any]]:
        """Evaluate and return only the objectives currently alerting."""
        return [s for s in self.evaluate() if s["alerting"]]
