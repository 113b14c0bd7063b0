"""Routing-regret probe (traced run only).

For each distinct product of a workload, time every kernel that supports
its mask — the listed algorithms plus the compiled ``msa-native`` and
``hash-native`` tiers — and compare the kernel ``auto_select`` picks with
the fastest one. Two-phase products are timed on the warm path (plan built
beforehand, untimed); one-phase products as a plain call.
"""

from __future__ import annotations

import time


def candidates(mask) -> list[str]:
    from repro.core import registry

    keys = registry.available_algorithms(complemented=mask.complemented)
    keys += ["msa-native", "hash-native"]
    if not mask.complemented:
        return keys
    return [k for k in keys if registry.get_spec(k).supports_complement]


def time_kernel(prod, key: str, repeats: int = 2) -> float:
    """Best-of-``repeats`` seconds of one kernel on one product."""
    from repro import masked_spgemm
    from repro.core.plan import build_plan

    plan = (build_plan(prod.A, prod.B, prod.mask, algorithm=key, phases=2)
            if prod.phases == 2 else None)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        masked_spgemm(prod.A, prod.B, prod.mask, algorithm=key,
                      semiring=prod.semiring, phases=prod.phases, plan=plan,
                      verify_symbolic=False)
        best = min(best, time.perf_counter() - t0)
    return best


def probe(products) -> tuple[float, list[dict]]:
    """``(regret_ratio, rows)``: the summed time of the auto picks over the
    summed time of the fastest candidates, and one row per product."""
    from repro.core import registry

    rows = []
    for prod in products:
        pick = registry.auto_select(prod.A, prod.B, prod.mask)
        times = {k: time_kernel(prod, k) for k in candidates(prod.mask)}
        if pick not in times:
            times[pick] = time_kernel(prod, pick)
        best = min(times, key=times.get)
        rows.append({"pick": pick, "pick_ms": times[pick] * 1e3,
                     "best": best, "best_ms": times[best] * 1e3})
    total_best = sum(r["best_ms"] for r in rows)
    ratio = (sum(r["pick_ms"] for r in rows) / total_best
             if total_best else 1.0)
    return ratio, rows
