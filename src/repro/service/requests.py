"""Request / response dataclasses for the service layer.

A :class:`Request` names its operands by **store key** (see
:class:`repro.service.store.MatrixStore`) rather than carrying matrices, so
requests are cheap to build, log and load from JSON. The engine
resolves keys at execution time, which is what lets a long-lived service
update a registered matrix's values between requests without touching the
request stream.

Every :class:`Response` carries a :class:`RequestStats` — the per-request
observability (plan-cache hit/miss, which phase work was skipped, timings)
that the ROADMAP's serving story needs and that
``benchmarks/bench_service_plan_cache.py`` plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..sparse.csr import CSRMatrix


@dataclass
class Request:
    """One masked product ``C = M ⊙ (A·B)`` addressed by store keys.

    Parameters
    ----------
    a, b : str
        Store keys of the operands.
    mask : str | None
        Store key of the mask pattern; None means unmasked (full mask).
    complemented : bool
        Complement the mask pattern (``C = ¬M ⊙ (A·B)``).
    algorithm : str
        Kernel key or ``"auto"`` (resolved once, then cached in the plan)
        or a baseline name (baselines bypass the plan cache — they have no
        symbolic phase).
    phases : int
        1 or 2. Two-phase requests are where plan caching pays most: a warm
        request skips the whole symbolic pass.
    semiring : str
        Registered semiring name (string, so requests stay JSON-serializable).
    tag : str
        Free-form label echoed into the response, for workload bookkeeping.
    deadline_ms : float | None
        Total latency budget in milliseconds, or None for no deadline. The
        async server starts the clock at :meth:`AsyncServer.submit` (queue
        time counts); enforcement sites — admission, queue, engine —
        shed the request with :class:`~repro.resilience.DeadlineExceeded`
        once the budget is spent. ``from_dict`` picks it up like every
        other field, so JSON workloads can set per-request deadlines.
    """

    a: str
    b: str
    mask: str | None = None
    complemented: bool = False
    algorithm: str = "auto"
    phases: int = 2
    semiring: str = "plus_times"
    tag: str = ""
    deadline_ms: float | None = None

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "Request":
        """Build from a JSON-ish dict (the CLI workload format)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(spec) - known - {"repeat"}
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        return cls(**{k: v for k, v in spec.items() if k in known})


@dataclass
class RequestStats:
    """Per-request execution telemetry."""

    algorithm: str = ""            # resolved kernel (post auto-select)
    kernel_tier: str = ""          # tier that executed the numeric pass
                                   # (native/fused/loop/baseline; "" when no
                                   # kernel ran, e.g. result-cache hits) —
                                   # reflects degradation, unlike `algorithm`
    phases: int = 1
    planned: bool = True           # False for baselines (no symbolic phase)
    plan_cache_hit: bool = False   # plan came from the cache
    result_cache_hit: bool = False # whole numeric result came from the cache
    direct_write: bool = False     # numeric pass wrote straight into the
                                   # final CSR arrays (two-phase, fused kernel)
    coalesced: bool = False        # response shared with an identical
                                   # in-flight request (async server dedup)
    plan_seconds: float = 0.0      # auto-select + symbolic (0 on warm hits)
    numeric_seconds: float = 0.0
    total_seconds: float = 0.0
    queued_seconds: float = 0.0    # admission→execution wait (async server only)
    output_nnz: int = 0
    trace_id: str = ""             # engine trace record id ("" when tracing
                                   # is off); fetch the flame view at
                                   # /trace/<trace_id>.json while retained

    @property
    def plan_reused(self) -> bool:
        """The numeric pass consumed a cached plan."""
        return self.plan_cache_hit

    @property
    def symbolic_skipped(self) -> bool:
        """A two-phase request that ran no symbolic pass (warm plan)."""
        return self.plan_cache_hit and self.phases == 2

    @property
    def serving_tier(self) -> str:
        """Where this request was answered — the label
        ``repro_engine_requests_total{tier=...}`` counts it under:
        ``result`` (whole output from the result cache), ``warm``
        (plan-cache hit), ``cold`` (plan built), ``unplanned``
        (baselines)."""
        if self.result_cache_hit:
            return "result"
        if not self.planned:
            return "unplanned"
        return "warm" if self.plan_cache_hit else "cold"

    def as_summary(self) -> dict:
        """Compact JSON-able summary for the flight recorder's request
        ring: enough to reconstruct what a request did without holding
        the matrices or the trace."""
        return {
            "trace_id": self.trace_id,
            "tier": self.serving_tier,
            "algorithm": self.algorithm,
            "kernel_tier": self.kernel_tier,
            "phases": self.phases,
            "direct_write": self.direct_write,
            "plan_seconds": round(self.plan_seconds, 6),
            "numeric_seconds": round(self.numeric_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "queued_seconds": round(self.queued_seconds, 6),
            "output_nnz": self.output_nnz,
        }

    def as_row(self) -> list:
        """Flat rendering for tables/CSV (bench + CLI reporting)."""
        return [self.algorithm, self.phases,
                "result" if self.result_cache_hit
                else "-" if not self.planned
                else "hit" if self.plan_cache_hit else "miss",
                self.plan_seconds * 1e3, self.numeric_seconds * 1e3,
                self.total_seconds * 1e3, self.output_nnz]


@dataclass
class Response:
    """Result of one request: the output matrix plus its stats."""

    result: CSRMatrix
    stats: RequestStats
    tag: str = ""
    request: Request | None = field(default=None, repr=False)
