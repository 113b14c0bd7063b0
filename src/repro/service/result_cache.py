"""Result cache: the engine's one memoization tier.

Serving traffic repeats: dashboards re-query the same graph, retries replay
identical requests, and iterative workloads re-run on unchanged inputs. For
those, the product itself is deterministic — same operand patterns, same
operand *values*, same execution config → bit-identical output — so the
full numeric result can be memoized.

``ResultCache`` is a byte-accounted LRU keyed on :func:`result_key`:

    (A pattern fp, B pattern fp, mask fp, complemented, requested
     algorithm, semiring name, A value hash, B value hash)

— the request's structural identity extended with
:func:`repro.sparse.ops.value_fingerprint` digests of both operands' stored
numbers. The requested algorithm (``"auto"`` included) is part of the key
because a kernel's floating-point summation order is part of its output;
``phases`` is not, because the engine serves both values one-phase. Mask
values never enter the key: masks are pure patterns, already covered by the
mask fingerprint. Hits return the cached
:class:`~repro.sparse.csr.CSRMatrix` object itself — bit-identical by
construction, zero-copy by design (library kernels never mutate operands, and
the engine hands the same object to every hit).

Eviction is LRU over *result bytes* (``indptr + indices + data``), not entry
count, because output sizes vary by orders of magnitude across requests; a
single over-budget result is simply not admitted. The cache layer is
engine-opt-in (``Engine(result_cache_bytes=...)``) and consulted only for
store-keyed requests — ad-hoc :meth:`Engine.multiply` operands would pay an
O(nnz) hash per call with little chance of repetition (iterative algorithms
change values every step).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..bench.metrics import hit_rate
from ..sparse.csr import CSRMatrix
from .store import matrix_nbytes

#: cache key tuple — see :func:`result_key` for field order
ResultKey = tuple


def result_key(a_fp: str, b_fp: str, mask_fp: str, complemented: bool,
               algorithm: str, semiring: str, a_value_fp: str,
               b_value_fp: str) -> ResultKey:
    """The result identity of one request: pattern fingerprints, mask
    polarity, requested algorithm and semiring name, plus both operands'
    value hashes."""
    return (a_fp, b_fp, mask_fp, bool(complemented), algorithm.lower(),
            semiring, a_value_fp, b_value_fp)


@dataclass
class CachedResult:
    """A memoized numeric product plus the metadata a Response needs."""

    matrix: CSRMatrix
    #: resolved kernel that produced it (stats reporting on hits)
    algorithm: str
    nbytes: int


class ResultCache:
    """Byte-accounted LRU map from :func:`result_key` tuples to results.

    Parameters
    ----------
    budget_bytes : ceiling on summed result bytes. Admitting past it evicts
        least-recently-used entries; a result larger than the whole budget is
        not admitted at all (counted in ``oversize_rejects``).
    """

    def __init__(self, budget_bytes: int = 256 << 20):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._results: OrderedDict[ResultKey, CachedResult] = OrderedDict()
        self.total_bytes = 0
        from ..obs.metrics import MetricsRegistry

        self._bind_counters(MetricsRegistry())

    #: value of the ``cache`` label on this cache's registry counters
    METRICS_LABEL = "result"

    def _bind_counters(self, registry) -> None:
        self.metrics = registry
        self._requests = registry.counter(
            "repro_cache_requests_total",
            "cache lookups/admissions by cache tier and outcome",
            labels=("cache", "outcome"))
        self._evict_counter = registry.counter(
            "repro_cache_evictions_total", "cache entries evicted",
            labels=("cache",))
        self._reject_counter = registry.counter(
            "repro_cache_rejects_total",
            "admissions refused, by reason (oversize: larger than the whole "
            "budget)",
            labels=("cache", "reason"))

    def bind_metrics(self, registry) -> None:
        """Re-home this cache's counters onto a shared registry (the
        engine's), carrying any standalone-accumulated counts forward."""
        hits, misses, evictions = self.hits, self.misses, self.evictions
        oversize = self.oversize_rejects
        self._bind_counters(registry)
        lbl = self.METRICS_LABEL
        if hits:
            self._requests.inc(hits, cache=lbl, outcome="hit")
        if misses:
            self._requests.inc(misses, cache=lbl, outcome="miss")
        if oversize:
            self._requests.inc(oversize, cache=lbl, outcome="reject")
            self._reject_counter.inc(oversize, cache=lbl, reason="oversize")
        if evictions:
            self._evict_counter.inc(evictions, cache=lbl)

    # -- registry-derived counters (deprecated fields, kept as views) ---- #
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

    @property
    def oversize_rejects(self) -> int:
        return int(self._reject_counter.value(cache=self.METRICS_LABEL,
                                              reason="oversize"))

    def get(self, key: ResultKey) -> CachedResult | None:
        entry = self._results.get(key)
        if entry is None:
            self._requests.inc(cache=self.METRICS_LABEL, outcome="miss")
            return None
        self._results.move_to_end(key)
        self._requests.inc(cache=self.METRICS_LABEL, outcome="hit")
        return entry

    def put(self, key: ResultKey, matrix: CSRMatrix, algorithm: str) -> bool:
        """Admit a result; returns False when it exceeds the whole budget."""
        nbytes = matrix_nbytes(matrix)
        if nbytes > self.budget_bytes:
            self._requests.inc(cache=self.METRICS_LABEL, outcome="reject")
            self._reject_counter.inc(cache=self.METRICS_LABEL,
                                     reason="oversize")
            return False
        old = self._results.pop(key, None)
        if old is not None:
            self.total_bytes -= old.nbytes
        self._results[key] = CachedResult(matrix, algorithm, nbytes)
        self.total_bytes += nbytes
        while self.total_bytes > self.budget_bytes:
            _, victim = self._results.popitem(last=False)
            self.total_bytes -= victim.nbytes
            self._evict_counter.inc(cache=self.METRICS_LABEL)
        return True

    def invalidate(self, key: ResultKey) -> bool:
        entry = self._results.pop(key, None)
        if entry is None:
            return False
        self.total_bytes -= entry.nbytes
        return True

    def invalidate_fingerprints(self, fingerprints) -> int:
        """Drop every entry whose key names any of ``fingerprints`` — in an
        operand/mask pattern slot *or* a value slot. This is the delta
        path's targeted invalidation: mutating one stored matrix kills
        exactly the memoized products that read it (by its old pattern
        and/or value hash) and leaves every other entry resident. Returns
        the number of entries dropped.

        (Fingerprints are content hashes, so an identical matrix registered
        under a second store key shares them; its entries drop too and
        simply re-memoize on the next request — a hygiene trade, never a
        correctness one.)
        """
        fps = {fp for fp in fingerprints if fp}
        if not fps:
            return 0
        victims = [k for k in self._results
                   if any(field in fps for field in k)]
        for k in victims:
            self.invalidate(k)
        return len(victims)

    def clear(self) -> None:
        self._results.clear()
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, key: ResultKey) -> bool:
        return key in self._results

    @property
    def hit_rate(self) -> float:
        return hit_rate(self.hits, self.misses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ResultCache {len(self._results)} results, "
                f"{self.total_bytes}/{self.budget_bytes} bytes, "
                f"{self.hits} hits / {self.misses} misses>")
