"""Request / response dataclasses for the service layer.

A :class:`Request` names its operands by **store key** (see
:class:`repro.service.store.MatrixStore`) rather than carrying matrices, so
requests are cheap to build, log and load from JSON. The engine
resolves keys at execution time, which is what lets a long-lived service
update a registered matrix's values between requests without touching the
request stream.

Every :class:`Response` carries a :class:`RequestStats` — the per-request
observability (serving tier, resolved kernel, the kernel tier that ran,
timings) behind the ``repro serve`` report and ``/metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.registry import BASELINE_KEYS
from ..errors import AlgorithmError
from ..sparse.csr import CSRMatrix


def check_phases(phases) -> None:
    """Reject a ``phases`` value other than 1 or 2 (both are served
    one-phase, so this is the only place the value still matters)."""
    if phases not in (1, 2):
        raise AlgorithmError(f"phases must be 1 or 2, got {phases!r}")


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
        Kernel key, ``"auto"`` (resolved per request by
        :func:`repro.core.registry.auto_select`) or a baseline name.
    phases : int
        1 or 2. Accepted for compatibility with the paper's ``<Alg>-<P>P``
        naming; the engine serves both one-phase, with the same output bits
        (see :mod:`repro.service.engine`).
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
    phases: int = 1
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
    result_cache_hit: bool = False # whole numeric result came from the cache
    coalesced: bool = False        # response shared with an identical
                                   # in-flight request (async server dedup)
    numeric_seconds: float = 0.0
    total_seconds: float = 0.0
    queued_seconds: float = 0.0    # admission→execution wait (async server only)
    output_nnz: int = 0
    trace_id: str = ""             # engine trace record id ("" when tracing
                                   # is off); fetch the flame view at
                                   # /trace/<trace_id>.json while retained

    # -- read by perfbench/tracing.py; the engine builds no plans -------- #
    @property
    def plan_seconds(self) -> float:
        return 0.0

    @property
    def plan_cache_hit(self) -> bool:
        return False

    @property
    def planned(self) -> bool:
        return self.algorithm not in BASELINE_KEYS

    @property
    def serving_tier(self) -> str:
        """Where this request was answered — the label
        ``repro_engine_requests_total{tier=...}`` counts it under:
        ``result`` (whole output from the result cache) or ``computed``
        (a numeric pass ran)."""
        return "result" if self.result_cache_hit else "computed"

    def as_summary(self) -> dict:
        """Compact JSON-able summary for the flight recorder's request
        ring: enough to reconstruct what a request did without holding
        the matrices or the trace."""
        return {
            "trace_id": self.trace_id,
            "tier": self.serving_tier,
            "algorithm": self.algorithm,
            "kernel_tier": self.kernel_tier,
            "numeric_seconds": round(self.numeric_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "queued_seconds": round(self.queued_seconds, 6),
            "output_nnz": self.output_nnz,
        }

    def as_row(self) -> list:
        """Flat rendering for tables/CSV (bench + CLI reporting)."""
        return [self.algorithm, self.serving_tier,
                self.numeric_seconds * 1e3, self.total_seconds * 1e3,
                self.output_nnz]


@dataclass
class Response:
    """Result of one request: the output matrix plus its stats."""

    result: CSRMatrix
    stats: RequestStats
    tag: str = ""
    request: Request | None = field(default=None, repr=False)
