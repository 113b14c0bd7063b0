"""JSON workload specs: declare matrices + request streams.

This is the serving layer's wire format — what ``python -m repro serve
workload.json`` consumes. A spec is a dict with two sections::

    {
      "matrices": {
        "G":  {"generator": "rmat", "scale": 8, "edge_factor": 8, "seed": 0,
               "prep": "triangle"},
        "A":  {"random": {"m": 200, "k": 150, "density": 0.05, "seed": 1}},
        "F":  {"path": "matrix.mtx"}
      },
      "requests": [
        {"a": "G", "b": "G", "mask": "G", "algorithm": "auto",
         "repeat": 8, "tag": "tc"}
      ]
    }

``repeat`` expands a request N times — the idiom for modelling repeated
traffic on unchanged operands, which is where the result cache and the
server's dedup earn their keep (a repeat is a result hit, or coalesces
onto its in-flight twin).

Matrix ``prep`` values: ``triangle`` (symmetrize + degree-sort + tril, the
TC workload), ``undirected`` (symmetrize + simplify), ``pattern`` (values
to 1.0), or absent for as-is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..sparse.csr import CSRMatrix
from .engine import Engine
from .requests import Request


def _check_keys(name: str, what: str, given: dict, allowed: set) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ValueError(
            f"matrix {name!r}: unknown {what} fields {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _build_matrix(name: str, spec: dict[str, Any]) -> CSRMatrix:
    from ..graphs import erdos_renyi, rmat
    from ..graphs.prep import to_undirected_simple, triangle_prep
    from ..sparse import csr_random, read_matrix_market

    spec = dict(spec)
    prep = spec.pop("prep", None)
    try:
        if "path" in spec:
            _check_keys(name, "path-spec", spec, {"path"})
            try:
                m = read_matrix_market(spec["path"])
            except FileNotFoundError:
                raise ValueError(
                    f"matrix {name!r}: file not found: {spec['path']}"
                ) from None
        elif "random" in spec:
            _check_keys(name, "spec", spec, {"random"})
            r = dict(spec["random"])
            _check_keys(name, "random", r,
                        {"m", "k", "density", "seed", "values"})
            m = csr_random(r["m"], r.get("k", r["m"]),
                           density=r.get("density", 0.05),
                           rng=r.get("seed", 0),
                           values=r.get("values", "uniform"))
        elif spec.get("generator") == "rmat":
            _check_keys(name, "rmat", spec,
                        {"generator", "scale", "edge_factor", "seed"})
            m = rmat(spec["scale"], spec.get("edge_factor", 8),
                     rng=spec.get("seed", 0))
        elif spec.get("generator") == "er":
            _check_keys(name, "er", spec,
                        {"generator", "n", "degree", "seed"})
            m = erdos_renyi(spec["n"], spec.get("degree", 8.0),
                            rng=spec.get("seed", 0), symmetrize=True)
        else:
            raise ValueError(
                f"matrix {name!r}: need one of path/random/generator, got {spec}"
            )
    except KeyError as e:
        raise ValueError(f"matrix {name!r}: missing required field {e}") from None
    if prep == "triangle":
        m = triangle_prep(m)
    elif prep == "undirected":
        m = to_undirected_simple(m)
    elif prep == "pattern":
        m = m.pattern()
    elif prep is not None:
        raise ValueError(f"matrix {name!r}: unknown prep {prep!r}")
    return m


def load_workload(path: str | Path) -> dict[str, Any]:
    spec = json.loads(Path(path).read_text())
    if "requests" not in spec or "matrices" not in spec:
        raise ValueError("workload spec needs 'matrices' and 'requests' sections")
    return spec


def expand_requests(spec: dict[str, Any]) -> list[Request]:
    """Request list with ``repeat`` expanded in stream order."""
    out: list[Request] = []
    for i, rspec in enumerate(spec["requests"]):
        repeat = int(rspec.get("repeat", 1))
        req = Request.from_dict(rspec)
        if not req.tag:
            req.tag = f"req{i}"
        out.extend([req] * repeat)
    return out


def register_matrices(engine: Engine, spec: dict[str, Any]) -> None:
    """Build and register every matrix in the spec's ``matrices`` section."""
    for name, mspec in spec["matrices"].items():
        engine.register(name, _build_matrix(name, mspec))


def render_serve_report(engine: Engine, server, responses,
                        seconds: float) -> str:
    """Human-readable async-serve report (the ``repro serve`` CLI output):
    per-request rows plus throughput, queue-wait and cache-tier telemetry."""
    from ..bench.metrics import latency_summary
    from ..bench.reporting import render_table

    rows = [[r.tag] + r.stats.as_row() + [r.stats.queued_seconds * 1e3]
            for r in responses]
    lines = [render_table(
        ["tag", "algorithm", "tier", "numeric (ms)", "total (ms)", "nnz",
         "queued (ms)"], rows)]
    lines.append("")
    n = len(responses)
    rps = n / seconds if seconds > 0 else float("inf")
    lines.append(
        f"serve: {n} requests in {seconds * 1e3:.1f} ms ({rps:.0f} req/s) — "
        f"{server.stats.batches} worker executions, "
        f"peak queue depth {server.stats.max_queue_depth}, "
        f"peak in-flight {server.stats.max_inflight_seen}")
    # coalesced responses carry copies of their primary's stats; keep them
    # out of every count and latency line so one execution is never
    # counted N times
    stats = [r.stats for r in responses if not r.stats.coalesced]
    coalesced = n - len(stats)
    result_hits = sum(1 for s in stats if s.result_cache_hit)
    computed = len(stats) - result_hits
    lines.append(
        f"cache tiers: {coalesced} coalesced, {result_hits} result hits, "
        f"{computed} computed")
    waits = latency_summary([s.queued_seconds for s in stats])
    if waits:
        lines.append(f"queue wait: {waits}")
    for tier in ("computed", "result"):
        summary = latency_summary(
            [s.total_seconds for s in stats if s.serving_tier == tier])
        if summary:
            lines.append(f"{tier} requests: {summary}")
    lines.append(f"engine: {len(engine.store)} matrices "
                 f"({engine.store.total_bytes} bytes resident)"
                 + (f", {len(engine.results)} results cached "
                    f"({engine.results.total_bytes} bytes)"
                    if engine.results is not None else ""))
    return "\n".join(lines)
