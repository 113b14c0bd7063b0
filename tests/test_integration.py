"""End-to-end integration tests spanning the whole stack:
generator → prep → masked kernels (all variants) → application → metric,
on suite graphs, with parallel executors in the loop."""

import numpy as np
import pytest

from repro import (
    Mask,
    PLUS_PAIR,
    SimulatedExecutor,
    masked_spgemm,
    triangle_count,
)
from repro.algorithms import betweenness_centrality, ktruss
from repro.bench import masked_flops, performance_profile, spgemm_flops
from repro.core import available_algorithms, display_name
from repro.graphs import load_graph, suite_graphs
from repro.graphs.prep import triangle_prep
from repro.perfmodel import predicted_best


def test_tc_pipeline_all_schemes_agree_on_suite_graph():
    """One suite graph through all scheme variants (the paper's 6 algorithms
    plus the chunk-fused ESC, × 2 phases): identical masked-product
    matrices everywhere."""
    g = load_graph("rmat-s8-e4")
    L = triangle_prep(g)
    mask = Mask.from_matrix(L)
    results = {}
    for alg in available_algorithms():
        for phases in (1, 2):
            C = masked_spgemm(L, L, mask, algorithm=alg, semiring=PLUS_PAIR,
                              phases=phases)
            results[display_name(alg, phases)] = C
    names = list(results)
    first = results[names[0]]
    for nm in names[1:]:
        assert results[nm].equals(first), nm
    # (6 paper algorithms + chunk-fused esc) x {1P, 2P}
    assert len(results) == 14


def test_masking_saves_work_on_triangle_counting():
    """The Fig. 1 story quantified: for TC the masked flops are a small
    fraction of the full product's flops."""
    g = load_graph("er-s10-d16")
    L = triangle_prep(g)
    full = spgemm_flops(L, L)
    useful = masked_flops(L, L, Mask.from_matrix(L))
    assert useful < 0.5 * full


def test_tc_parallel_and_serial_consistent_across_suite():
    ex = SimulatedExecutor(4)
    for name, g in suite_graphs(limit=4):
        want = triangle_count(g)
        got = triangle_count(g, algorithm="hash", executor=ex)
        assert got == want, name


def test_ktruss_then_tc_composition():
    """Triangles of the 5-truss == triangles counted on the 5-truss graph:
    two applications composed through the same substrate."""
    g = load_graph("ws-s9-k6")
    truss = ktruss(g, 5, algorithm="msa").subgraph
    t_via_pipeline = triangle_count(truss)
    assert t_via_pipeline == triangle_count(truss, algorithm="inner")


def test_bc_small_batch_runs_on_suite_graph():
    g = load_graph("er-s8-d4")
    res = betweenness_centrality(g, sources=range(8), algorithm="msa")
    assert res.centrality.shape == (g.nrows,)
    assert np.all(res.centrality >= -1e-9)
    assert res.depth >= 1


def test_perfmodel_prediction_is_a_valid_algorithm():
    g = load_graph("er-s9-d8")
    L = triangle_prep(g)
    pred = predicted_best(L, L, Mask.from_matrix(L))
    assert pred in available_algorithms()


def test_profile_workflow_on_real_timings():
    """Mini Fig. 8: time three kernels on three suite graphs and build a
    performance profile — the exact workflow of the figure benches."""
    from repro.bench import time_callable

    times = {}
    for name, g in suite_graphs(limit=3):
        L = triangle_prep(g)
        mask = Mask.from_matrix(L)
        for alg in ("msa", "hash", "inner"):
            t = time_callable(
                lambda a=alg: masked_spgemm(L, L, mask, algorithm=a,
                                            semiring=PLUS_PAIR),
                repeats=1, warmup=1)
            times.setdefault(display_name(alg), {})[name] = t
    prof = performance_profile(times)
    fracs = [prof.fraction_best(s) for s in prof.curves]
    assert max(fracs) > 0
    assert all(0.0 <= f <= 1.0 for f in fracs)


def test_matrix_market_to_application_roundtrip(tmp_path):
    """Persist a suite graph to .mtx, reload, and get identical results —
    the workflow a user with real SuiteSparse files would follow."""
    from repro import read_matrix_market, write_matrix_market

    g = load_graph("grid-24")
    path = tmp_path / "g.mtx"
    write_matrix_market(g, path)
    g2 = read_matrix_market(path)
    assert triangle_count(g2) == triangle_count(g)
