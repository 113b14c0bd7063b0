"""Batch execution: group compatible requests and fan them out.

``BatchExecutor`` is the across-products axis of parallelism (the engine's
own ``executor`` is the within-product, row-parallel axis). A batch is

1. **grouped** by :meth:`Request.group_key` — identical (algorithm, phases,
   semiring, complement) configs run back-to-back, so a repeated-mask group
   pays one cold plan and streams warm hits; then
2. **fanned out** through an existing :mod:`repro.parallel` executor
   (serial / thread / simulated).

Responses come back in the order of the input list regardless of grouping.

This layer stays synchronous on purpose: it is the execution substrate the
:class:`~repro.service.server.AsyncServer` worker pool drains into (each
drained group of compatible queued requests becomes one ``run()`` call), so
admission/backpressure concerns live in the server and batching/grouping
concerns live here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..parallel.executor import SerialExecutor
from .engine import Engine
from .requests import Request, Response


@dataclass
class BatchResult:
    """Ordered responses plus batch-level telemetry.

    With ``run(..., return_exceptions=True)``, entries of ``responses`` may
    be the exception a request raised instead of a Response.
    """

    responses: list[Response]
    seconds: float
    groups: int
    plan_hits: int
    plan_misses: int

    @property
    def plan_hit_rate(self) -> float:
        from ..bench.metrics import hit_rate

        return hit_rate(self.plan_hits, self.plan_misses)

    def __iter__(self):
        return iter(self.responses)


@dataclass
class BatchExecutor:
    """Run request batches against one engine.

    Parameters
    ----------
    engine : the (thread-safe) engine owning operands and plans.
    executor : a :mod:`repro.parallel` executor for the fan-out; None means
        serial.
    """

    engine: Engine
    executor: object = field(default=None)

    def run(self, requests: list[Request], *,
            return_exceptions: bool = False) -> BatchResult:
        """Execute every request; responses align with the input order.

        ``return_exceptions=True`` isolates failures per request: each
        request executes exactly once, and a raising request contributes its
        exception to ``responses`` instead of aborting the batch (the async
        server relies on this — re-running a half-finished batch would
        double-execute and double-count the requests that had succeeded).
        """
        executor = self.executor or SerialExecutor()
        hits0 = self.engine.plans.hits
        misses0 = self.engine.plans.misses
        t0 = time.perf_counter()

        # stable grouping: order of first appearance, original index kept
        groups: dict[tuple, list[int]] = {}
        for idx, req in enumerate(requests):
            groups.setdefault(req.group_key(), []).append(idx)
        order = [idx for members in groups.values() for idx in members]

        def exec_one(i: int):
            try:
                return (i, self.engine.submit(requests[i]))
            except Exception as e:  # noqa: BLE001 - attributed per request
                if return_exceptions:
                    return (i, e)
                raise

        fanned = executor.map(exec_one, order)
        responses: list[Response | None] = [None] * len(requests)
        for idx, resp in fanned:
            responses[idx] = resp
        seconds = time.perf_counter() - t0
        # batch-level series on the engine's registry (the per-request
        # series come from the engine itself); get-or-make is idempotent
        self.engine.metrics.histogram(
            "repro_batch_seconds",
            "wall time of one BatchExecutor.run fan-out").observe(seconds)
        self.engine.metrics.counter(
            "repro_batch_requests_total",
            "requests executed through BatchExecutor").inc(len(requests))
        return BatchResult(
            responses=responses, seconds=seconds, groups=len(groups),
            plan_hits=self.engine.plans.hits - hits0,
            plan_misses=self.engine.plans.misses - misses0,
        )
