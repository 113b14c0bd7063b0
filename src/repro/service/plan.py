"""Plan cache: in-process memoization of symbolic plans.

The cache key is the full structural identity of a request:

    (A-pattern fp, B-pattern fp, mask fp, complemented,
     requested algorithm, phases, semiring name)

keyed on the *requested* algorithm (so ``"auto"`` requests hit other
``"auto"`` requests — the resolved kernel lives inside the cached
:class:`~repro.core.plan.SymbolicPlan`), and on the semiring by name because
the symbolic pattern is semiring-independent but the plan's validity contract
is simplest when a key maps to exactly one execution configuration.

Entries are LRU-evicted past ``capacity``. Hit/miss/eviction accounting
lives on :mod:`repro.obs` registry counters
(``repro_cache_requests_total{cache="plan",outcome=...}``); the ``hits`` /
``misses`` / ``evictions`` attributes are read-only views over those
counters (``hits`` is what ``ktruss`` and ``mcl`` report). A standalone
cache owns a private registry; the engine re-homes it onto the shared one
via :meth:`PlanCache.bind_metrics`.

Plans live only as long as the process: the symbolic pass a plan saves
runs once per distinct pattern per process, which is cheap next to the
numeric work of a request stream (``docs/BENCHMARKS.md``, "Plan
persistence retirement").
"""

from __future__ import annotations

from collections import OrderedDict

from ..bench.metrics import hit_rate
from ..core.plan import SymbolicPlan

#: cache key tuple — see module docstring for field order
PlanKey = tuple


def plan_key(a_fp: str, b_fp: str, mask_fp: str, complemented: bool,
             algorithm: str, phases: int, semiring: str) -> PlanKey:
    return (a_fp, b_fp, mask_fp, bool(complemented),
            algorithm.lower(), int(phases), semiring)


class PlanCache:
    """LRU map from :func:`plan_key` tuples to :class:`SymbolicPlan`."""

    #: value of the ``cache`` label on this cache's registry counters
    METRICS_LABEL = "plan"

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[PlanKey, SymbolicPlan] = OrderedDict()
        from ..obs.metrics import MetricsRegistry

        self._bind_counters(MetricsRegistry())

    def _bind_counters(self, registry) -> None:
        self.metrics = registry
        self._requests = registry.counter(
            "repro_cache_requests_total",
            "cache lookups/admissions by cache tier and outcome",
            labels=("cache", "outcome"))
        self._evict_counter = registry.counter(
            "repro_cache_evictions_total", "cache entries evicted",
            labels=("cache",))

    def bind_metrics(self, registry) -> None:
        """Re-home this cache's counters onto a shared registry (the
        engine's), carrying any standalone-accumulated counts forward."""
        hits, misses, evictions = self.hits, self.misses, self.evictions
        self._bind_counters(registry)
        lbl = self.METRICS_LABEL
        if hits:
            self._requests.inc(hits, cache=lbl, outcome="hit")
        if misses:
            self._requests.inc(misses, cache=lbl, outcome="miss")
        if evictions:
            self._evict_counter.inc(evictions, cache=lbl)

    def get(self, key: PlanKey) -> SymbolicPlan | None:
        plan = self._plans.get(key)
        if plan is None:
            self._requests.inc(cache=self.METRICS_LABEL, outcome="miss")
            return None
        self._plans.move_to_end(key)
        self._requests.inc(cache=self.METRICS_LABEL, outcome="hit")
        return plan

    def put(self, key: PlanKey, plan: SymbolicPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self._evict_counter.inc(cache=self.METRICS_LABEL)

    # -- read-only views over the registry counters ------------------- #
    @property
    def hits(self) -> int:
        return int(self._requests.value(cache=self.METRICS_LABEL,
                                        outcome="hit"))

    @property
    def misses(self) -> int:
        return int(self._requests.value(cache=self.METRICS_LABEL,
                                        outcome="miss"))

    @property
    def evictions(self) -> int:
        return int(self._evict_counter.value(cache=self.METRICS_LABEL))

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    @property
    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache {len(self._plans)}/{self.capacity} plans, "
                f"{self.hits} hits / {self.misses} misses>")
