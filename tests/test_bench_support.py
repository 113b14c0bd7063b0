"""Tests for bench support: metrics, performance profiles, harness,
reporting."""

import numpy as np
import pytest

from repro.bench import (
    GridResult,
    compression_factor,
    gflops,
    masked_flops,
    mteps,
    performance_profile,
    render_profile,
    render_series,
    render_table,
    run_grid,
    spgemm_flops,
    time_callable,
)
from repro.mask import Mask
from repro.sparse import csr_random


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_spgemm_flops_definition(self, rng):
        from repro.core.expand import total_flops

        A = csr_random(20, 20, density=0.2, rng=rng)
        B = csr_random(20, 20, density=0.2, rng=rng)
        assert spgemm_flops(A, B) == 2 * total_flops(A, B)

    def test_masked_flops_bounds(self, rng):
        A = csr_random(20, 20, density=0.2, rng=rng)
        B = csr_random(20, 20, density=0.2, rng=rng)
        M = csr_random(20, 20, density=0.3, rng=rng)
        mk = Mask.from_matrix(M)
        mf = masked_flops(A, B, mk)
        assert 0 <= mf <= spgemm_flops(A, B)
        # plain + complement partition the total
        mfc = masked_flops(A, B, mk.complement())
        assert mf + mfc == spgemm_flops(A, B)

    def test_masked_flops_full_mask(self, rng):
        A = csr_random(10, 10, density=0.3, rng=rng)
        B = csr_random(10, 10, density=0.3, rng=rng)
        assert masked_flops(A, B, Mask.full((10, 10))) == spgemm_flops(A, B)

    def test_rate_metrics(self):
        assert gflops(2e9, 2.0) == 1.0
        assert gflops(1.0, 0.0) == float("inf")
        assert mteps(512, 1_000_000, 512.0) == 1.0

    def test_compression_factor(self, rng):
        from repro.core import spgemm

        A = csr_random(15, 15, density=0.3, rng=rng)
        B = csr_random(15, 15, density=0.3, rng=rng)
        C = spgemm(A, B)
        cf = compression_factor(A, B, C)
        assert cf >= 1.0  # flops >= outputs


# --------------------------------------------------------------------- #
# performance profiles
# --------------------------------------------------------------------- #
class TestPerfProfile:
    def test_basic_fractions(self):
        times = {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 2.0, "y": 1.0}}
        p = performance_profile(times, taus=np.array([1.0, 2.0, 3.0]))
        assert p.fraction_best("a") == 0.5
        assert p.fraction_best("b") == 0.5
        assert p.curves["a"].tolist() == [0.5, 1.0, 1.0]

    def test_dominant_scheme_ranks_first(self):
        times = {"fast": {"x": 1.0, "y": 1.0, "z": 1.0},
                 "slow": {"x": 1.5, "y": 3.0, "z": 2.0}}
        p = performance_profile(times)
        assert p.ranking()[0] == "fast"
        assert p.fraction_best("fast") == 1.0

    def test_missing_cases_are_failures(self):
        times = {"full": {"x": 1.0, "y": 1.0}, "partial": {"x": 0.5}}
        p = performance_profile(times, taus=np.array([1.0, 10.0]))
        assert p.ratios["partial"]["y"] == float("inf")
        assert p.curves["partial"][-1] == 0.5

    def test_ties_count_as_best_for_both(self):
        times = {"a": {"x": 1.0}, "b": {"x": 1.0}}
        p = performance_profile(times)
        assert p.fraction_best("a") == p.fraction_best("b") == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            performance_profile({})
        with pytest.raises(ValueError):
            performance_profile({"a": {}})

    def test_area_monotone_in_dominance(self):
        times = {"good": {"x": 1.0, "y": 1.0}, "bad": {"x": 2.0, "y": 2.0}}
        p = performance_profile(times, taus=np.linspace(1, 3, 10))
        assert p.area("good") > p.area("bad")


# --------------------------------------------------------------------- #
# harness + reporting
# --------------------------------------------------------------------- #
class TestHarness:
    def test_time_callable_measures(self):
        calls = []
        t = time_callable(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert t >= 0.0

    def test_run_grid_skips_unsupported(self):
        def make(scheme):
            if scheme == "broken":
                raise ValueError("unsupported")
            return lambda: None

        cases = [("case1", lambda s: make(s))]
        res = run_grid(cases, ["ok", "broken"], repeats=1, warmup=0)
        assert "case1" in res.times["ok"]
        assert "broken" not in res.times

    def test_run_grid_raise_mode(self):
        cases = [("c", lambda s: (_ for _ in ()).throw(ValueError()))]
        with pytest.raises(ValueError):
            run_grid(cases, ["x"], on_error="raise")

    def test_grid_result_accessors(self):
        r = GridResult()
        r.record("s1", "c1", 1.0)
        r.record("s1", "c2", 2.0)
        r.record("s2", "c1", 3.0)
        assert r.schemes() == ["s1", "s2"]
        assert r.cases() == ["c1", "c2"]


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "22.5" in lines[3]

    def test_render_series_includes_all_points(self):
        out = render_series("T", "x", "y", {"s1": [(1, 10.0), (2, 20.0)],
                                            "s2": [(1, 5.0)]})
        assert "T" in out and "s1" in out and "s2" in out
        assert "20" in out
        assert "nan" in out  # s2 missing at x=2

    def test_render_profile_smoke(self):
        times = {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 2.0, "y": 1.0}}
        out = render_profile("demo", performance_profile(times))
        assert "demo" in out and "tau=1" in out
        assert "a" in out and "b" in out


# --------------------------------------------------------------------- #
# perf-trajectory envelope (benchmarks/common.py)
# --------------------------------------------------------------------- #
def _load_bench_common():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "common.py"
    spec = importlib.util.spec_from_file_location("bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_runs_carry_env_fingerprint(tmp_path):
    import json
    import platform

    common = _load_bench_common()
    artifact = tmp_path / "BENCH_test.json"
    common.append_trajectory_run(artifact, "face", [{"seconds": 1.0}])
    common.append_trajectory_run(artifact, "face", [{"seconds": 2.0}])
    runs = json.loads(artifact.read_text())["runs"]
    assert len(runs) == 2
    for run in runs:
        env = run["env"]
        assert set(env) == {"cores", "native_backend", "python", "numpy",
                            "git"}
        assert env["cores"] >= 1
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["git"] == "unknown" or env["git"].removesuffix(
            "-dirty").isalnum()
    assert common.latest_trajectory_run(artifact, bench="face")[
        "results"] == [{"seconds": 2.0}]
