"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from repro.sparse.csr import CSRMatrix

from harness import (END_TO_END, highest_percentile, measure, per_layer_names,
                     run_workload)
from tracing import Recorder, _self_ms, layer_metrics, percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("registry.route.", "runner.chunks", "kernel.flops", "kernel.calls",
          "delta.dirty_rows", "delta.plans_spliced", "delta.results_patched",
          "plan.symbolic_rows", "engine.calls", "trace.ops")


def _span(rec, layer, name, parent, t0, t1, **attrs):
    span = rec.open(layer, name, parent, t0=t0, kind=0)
    span.t1 = t1
    span.attrs.update(attrs)
    return span


def test_self_time_and_unattributed_partition_the_op():
    rec = Recorder()
    op = _span(rec, "op", "op", None, 0.0, 10.0)
    server = _span(rec, "server", "server.submit", op, 1.0, 9.0)
    engine = _span(rec, "engine", "engine.submit", server, 2.0, 8.0,
                   plan_ms=0.0, numeric_ms=0.0)
    runner = _span(rec, "runner", "runner.parallel_masked_spgemm", engine,
                   2.5, 7.5)
    _span(rec, "kernel", "kernel.esc", runner, 3.0, 5.0, flops=10, bytes=5)
    _span(rec, "kernel", "kernel.esc", runner, 5.0, 7.0, flops=30, bytes=15)
    _span(rec, "trace", "trace.bookkeeping", runner, 7.0, 7.25)
    m = layer_metrics(rec)
    # seconds in, milliseconds out
    assert m["server.self_ms.sum"] == pytest.approx(2e3)
    assert m["engine.self_ms.sum"] == pytest.approx(1e3)
    assert m["runner.self_ms.sum"] == pytest.approx(0.75e3)
    assert m["runner.dispatch_ms.sum"] == m["runner.self_ms.sum"]
    assert m["kernel.self_ms.sum"] == pytest.approx(4e3)
    assert m["trace.self_ms.sum"] == pytest.approx(0.25e3)
    assert m["unattributed_ms.sum"] == pytest.approx(2e3)
    assert m["op.wall_ms.sum"] == pytest.approx(10e3)
    assert m["trace.attribution_gap_ms"] == pytest.approx(0.0, abs=1e-9)
    assert m["server.wait_ms.p50"] == pytest.approx(2e3)
    assert m["runner.chunks"] == 2
    assert m["kernel.flops"] == 40
    assert m["kernel.flops_per_byte"] == pytest.approx(2.0)


def test_overlapping_children_are_counted_once():
    rec = Recorder()
    parent = _span(rec, "op", "op", None, 0.0, 10.0)
    kids = [_span(rec, "ops", "ops.a", parent, 1.0, 4.0),
            _span(rec, "ops", "ops.b", parent, 3.0, 6.0),
            _span(rec, "ops", "ops.c", parent, 9.0, 12.0)]  # clipped at 10
    assert _self_ms(parent, kids) == pytest.approx((10 - 5 - 1) * 1e3)


def test_per_op_counts_average_per_kind():
    rec = Recorder()
    for kind, flops in ((0, 10), (0, 10), (0, 10), (1, 50)):
        op = rec.open("op", "op", None, t0=0.0, kind=kind)
        op.t1 = 1.0
        _span(rec, "kernel", "kernel.msa", op, 0.0, 0.5, flops=flops, bytes=1)
    # three ops of kind 0 and one of kind 1 still weigh the kinds equally
    assert layer_metrics(rec)["kernel.flops"] == pytest.approx(30.0)


def test_p90_needs_ten_samples_beyond_it():
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50
    assert highest_percentile(99) == 50
    assert highest_percentile(100) == 90
    assert highest_percentile(999) == 90
    assert highest_percentile(1000) == 99
    values = list(range(1, 101))
    assert percentile(values, 90) == 90  # ten samples (91..100) beyond it
    assert percentile(values, 50) == 50


class _Instant:
    """A workload whose ops take no time, for loop-control tests."""

    clients, cycle = 2, 1

    async def op(self, client, seq):
        await asyncio.sleep(0)
        return seq, client

    def check(self, kind, out):
        return True

    def flops(self, kind):
        return 1


def test_run_has_at_least_min_ops():
    phase = asyncio.run(measure(_Instant(), 0.0, 100))
    assert phase.attempted >= 100 and len(phase.latencies) >= 100
    assert highest_percentile(len(phase.latencies)) >= 90


def _tiny(name, seed, trace, wl=None):
    return asyncio.run(run_workload(name, seed, 0.0, trace, size="tiny",
                                    min_ops=4, wl=wl))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(name):
    async def inputs(w):
        await w.setup()
        await w.close()
        return w

    a, b = (asyncio.run(inputs(WORKLOADS[name](7, "tiny"))) for _ in "ab")
    for ga, gb in zip(a.graphs, b.graphs):
        assert np.array_equal(ga.indptr, gb.indptr)
        assert np.array_equal(ga.indices, gb.indices)
    if name == "bc-batch":
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a.jobs, b.jobs))
    first, second = _tiny(name, 7, True), _tiny(name, 7, True)
    for key, value in first["metrics"].items():
        if key.startswith(COUNTS) and key != "trace.ops":
            assert second["metrics"][key] == value, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_counts_a_corrupted_result_as_failed(name):
    clean = _tiny(name, 3, False)
    assert clean["phases"][0].failed == 0
    assert set(clean["metrics"]) == {k for k, _ in END_TO_END}
    assert all(v > 0 for v in clean["metrics"].values())

    wl = WORKLOADS[name](3, "tiny")
    honest = wl.op

    async def corrupted(client, seq):
        out, kind = await honest(client, seq)
        if seq == 1 and client == 0:
            out = (out + 1.0 if isinstance(out, np.ndarray)
                   else CSRMatrix.empty(out.shape))
        return out, kind

    wl.op = corrupted
    res = _tiny(name, 3, False, wl=wl)
    assert res["phases"][0].failed == 1
    assert res["metrics"]["ok_frac"] < 1.0


def test_traced_run_reports_every_layer_metric():
    res = _tiny("ktruss-stream", 5, True)
    assert list(res["metrics"]) == per_layer_names()
    m = res["metrics"]
    assert m["delta.dirty_rows"] > 0 and m["server.self_ms.sum"] == 0
    assert abs(m["trace.attribution_gap_ms"]) < 1e-6 * m["op.wall_ms.sum"]


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k, _ in
                                                       END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in
                                                       END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tc-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
