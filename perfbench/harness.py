"""Measurement loop and metric assembly.

End-to-end metrics come from an untraced run; the traced run (``trace=1``)
measures a short untraced baseline, then the same loop with the timing
shims installed, then the routing-regret probe.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time

from tracing import (KERNEL_KEYS, LAYERS, Recorder, Shims, layer_metrics,
                     percentile, reset_current, set_current)
from workloads import WORKLOADS

#: the percentile ladder timings are reported on
PERCENTILES = (50, 90, 99, 99.9)

#: a run needs this many ops before its p90 has ten samples beyond it
MIN_OPS = 100

END_TO_END = (
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("throughput_ops", "1/s"), ("gflops", "GFLOP/s"), ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


def highest_percentile(n: int) -> float | None:
    """The highest percentile of :data:`PERCENTILES` with at least ten of
    ``n`` samples beyond it (``None`` below 20 samples)."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{layer}.self_ms.sum" for layer in LAYERS]
    names += ["server.wait_ms.p50", "server.wait_ms.p90",
              "server.queued_ms.p50", "server.requests_per_batch",
              "server.failed",
              "engine.calls", "engine.busy_ms.p50", "engine.overhead_ms.p50",
              "engine.plan_hit_ratio", "engine.result_hit_ratio",
              "plan.symbolic_ms.sum", "plan.symbolic_rows",
              "plan.splice_ms.sum",
              "registry.auto_select_us.p50", "registry.regret_ratio"]
    names += [f"registry.route.{k}" for k in KERNEL_KEYS]
    names += ["runner.busy_ms.sum", "runner.chunks", "runner.dispatch_ms.sum",
              "kernel.busy_ms.sum", "kernel.calls", "kernel.flops",
              "kernel.bytes_computed", "kernel.flops_per_byte",
              "kernel.gflops"]
    for k in KERNEL_KEYS:
        names += [f"kernel.{k}.busy_ms.sum", f"kernel.{k}.calls",
                  f"kernel.{k}.flops"]
    names += ["delta.apply_ms.p50", "delta.dirty_rows", "delta.plans_spliced",
              "delta.results_patched", "ops.busy_ms.sum",
              "op.wall_ms.sum", "unattributed_ms.sum", "trace.ops",
              "trace.overhead_frac", "trace.attribution_gap_ms"]
    return names


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "_ms" in name:
        return "ms"
    if "_us" in name:
        return "us"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("flops_per_byte"):
        return "flop/B"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    if name.endswith("rows"):
        return "rows"
    return "count"


class Phase:
    """Outcome of one measured loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.flops = 0
        self.wall = 0.0
        self.errors: list[str] = []


async def measure(wl, seconds: float, min_ops: int, *, rec=None,
                  max_seconds: float = 120.0) -> Phase:
    """Closed loop: each of ``wl.clients`` clients sends its next op when
    the previous one returns. Stops once ``seconds`` have passed and at
    least ``min_ops`` ops completed (and, for cycling workloads, a whole
    cycle), or at ``max_seconds``."""
    phase = Phase()
    cycle = getattr(wl, "cycle", 1)
    t_start = time.perf_counter()
    t_end = t_start

    def done(now):
        if now - t_start >= max_seconds:
            return True
        return (now - t_start >= seconds and phase.attempted >= min_ops
                and phase.attempted % cycle == 0)

    async def client(c):
        nonlocal t_end
        seq = 0
        while not done(time.perf_counter()):
            root = token = None
            t0 = time.perf_counter()
            if rec is not None:
                root = rec.open("op", "op", None, t0=t0)
                token = set_current(root)
            out, kind, error = None, None, None
            try:
                out, kind = await wl.op(c, seq)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if root is not None:
                root.t1, root.kind = t1, kind
                reset_current(token)
            phase.attempted += 1
            if error is None and wl.check(kind, out):
                phase.latencies.append(t1 - t0)
                phase.flops += wl.flops(kind)
            else:
                phase.failed += 1
                phase.errors.append(error or f"oracle mismatch (kind {kind})")
            t_end = max(t_end, t1)
            seq += 1

    await asyncio.gather(*(client(c) for c in range(wl.clients)))
    phase.wall = t_end - t_start
    return phase


def latency_summary(phase: Phase) -> dict:
    lat_ms = [x * 1e3 for x in phase.latencies]
    return {"samples": len(lat_ms),
            "top_percentile": highest_percentile(len(lat_ms)),
            "p50": percentile(lat_ms, 50), "p90": percentile(lat_ms, 90)}


async def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                       size: str = "full", min_ops: int = MIN_OPS,
                       other_setups: tuple = (), wl=None) -> dict:
    """Set up, compute the oracle, measure, and assemble the result.

    ``other_setups`` are set-up times measured in separate processes;
    ``setup_s`` is the median of those and this process's set-up.
    ``wl`` replaces the workload object (the self-tests pass a tampered
    one)."""
    wl = wl or WORKLOADS[name](seed, size)
    t0 = time.perf_counter()
    await wl.setup()
    setup_s = time.perf_counter() - t0
    try:
        wl.oracle()
        out = {"setup_s": statistics.median((setup_s, *other_setups)),
               "setup_runs": [setup_s, *other_setups],
               "verdict": wl.verdict}
        if not trace:
            phase = await measure(wl, seconds, min_ops)
            out["phases"] = [phase]
            lat = latency_summary(phase)
            out["latency"] = lat
            out["metrics"] = {
                "setup_s": out["setup_s"],
                "latency_p50_ms": lat["p50"],
                "latency_p90_ms": lat["p90"],
                "throughput_ops": len(phase.latencies) / phase.wall,
                "gflops": phase.flops / phase.wall / 1e9,
                "ok_frac": 1.0 - phase.failed / max(phase.attempted, 1),
                "peak_rss_mb": peak_rss_mb(),
            }
            return out
        base = await measure(wl, seconds / 4, min(min_ops, 20))
        rec = Recorder()
        before = wl.counters()
        with Shims(rec):
            traced = await measure(wl, seconds, min_ops, rec=rec)
        after = wl.counters()
        out["phases"] = [base, traced]
        out["latency"] = latency_summary(traced)
        m = layer_metrics(rec)
        batches = after.get("batches", 0) - before.get("batches", 0)
        m["server.requests_per_batch"] = (
            (after["completed"] - before["completed"]) / batches
            if batches else 0.0)
        m["server.failed"] = float(after.get("failed", 0)
                                   - before.get("failed", 0))
        base_p50 = latency_summary(base)["p50"]
        m["trace.overhead_frac"] = (out["latency"]["p50"] / base_p50 - 1.0
                                    if base_p50 else 0.0)
        from regret import probe

        m["registry.regret_ratio"], out["regret"] = probe(wl.products)
        out["metrics"] = {k: m[k] for k in per_layer_names()}
        return out
    finally:
        await wl.close()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
