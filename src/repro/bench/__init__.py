"""Benchmark support: metrics, Dolan-Moré performance profiles, experiment
harness and ASCII reporting.

The modules here are what the per-figure scripts in ``benchmarks/`` share:
:mod:`metrics` defines flops/GFLOPS/TEPS exactly as the paper's figures do,
:mod:`perfprof` computes performance profiles (Dolan & Moré [20], the
paper's Figs. 8/9/12/13/16), :mod:`harness` runs algorithm × input grids
with warmup/repeat timing, and :mod:`reporting` renders the same
rows/series a paper figure plots, as text.
"""

from .metrics import (
    gflops,
    hit_rate,
    latency_percentiles,
    masked_flops,
    mteps,
    spgemm_flops,
    latency_summary,
    compression_factor,
)
from .perfprof import PerformanceProfile, performance_profile
from .harness import GridResult, run_grid, time_callable
from .reporting import render_profile, render_series, render_table

__all__ = [
    "spgemm_flops",
    "masked_flops",
    "gflops",
    "mteps",
    "compression_factor",
    "hit_rate",
    "latency_percentiles",
    "latency_summary",
    "performance_profile",
    "PerformanceProfile",
    "time_callable",
    "run_grid",
    "GridResult",
    "render_table",
    "render_series",
    "render_profile",
]
