"""Betweenness centrality vs the networkx oracle (directed and undirected,
full and batched sources, across complement-capable kernels)."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from conftest import needs_native

from repro.algorithms import betweenness_centrality
from repro.algorithms.betweenness import _sources_matrix
from repro.core import masked_spgemm
from repro.errors import MaskError
from repro.graphs import erdos_renyi, rmat
from repro.graphs.prep import to_undirected_simple
from repro.mask import Mask
from repro.semiring import PLUS_FIRST
from repro.sparse import CSRMatrix, csr_from_dense, ops
from repro.sparse.convert import to_scipy


def nx_bc(g, directed):
    G = nx.from_scipy_sparse_array(
        to_scipy(g), create_using=nx.DiGraph if directed else nx.Graph)
    d = nx.betweenness_centrality(G, normalized=False)
    return np.array([d[i] for i in range(g.nrows)])


@pytest.mark.parametrize("alg", [
    "auto", "msa", "hash", "heap", "heapdot",
    pytest.param("msa-native", marks=needs_native)])
def test_directed_all_sources(alg):
    g = erdos_renyi(50, 3, rng=21)
    res = betweenness_centrality(g, algorithm=alg)
    assert np.allclose(res.centrality, nx_bc(g, directed=True), atol=1e-8)


def test_undirected_halves_scores():
    g = to_undirected_simple(erdos_renyi(40, 3, rng=22, symmetrize=True))
    res = betweenness_centrality(g)
    assert np.allclose(res.centrality, nx_bc(g, directed=False), atol=1e-8)


def test_rmat_graph():
    g = to_undirected_simple(rmat(6, 6, rng=23))
    res = betweenness_centrality(g, algorithm="hash")
    assert np.allclose(res.centrality, nx_bc(g, directed=False), atol=1e-8)


def test_path_graph_known_values():
    # path a-b-c-d: unnormalized undirected BC = [0, 2, 2, 0]
    p = np.zeros((4, 4))
    for i in range(3):
        p[i, i + 1] = p[i + 1, i] = 1
    res = betweenness_centrality(csr_from_dense(p))
    assert np.allclose(res.centrality, [0, 2, 2, 0])


def test_star_graph_center_dominates():
    n = 7
    star = np.zeros((n, n))
    star[0, 1:] = star[1:, 0] = 1
    res = betweenness_centrality(csr_from_dense(star))
    want = (n - 1) * (n - 2) / 2  # center lies on every leaf pair
    assert np.isclose(res.centrality[0], want)
    assert np.allclose(res.centrality[1:], 0)


def test_batched_sources_sum_to_full():
    g = erdos_renyi(36, 3, rng=24)
    full = betweenness_centrality(g).centrality
    part1 = betweenness_centrality(g, sources=range(18)).centrality
    part2 = betweenness_centrality(g, sources=range(18, 36)).centrality
    assert np.allclose(part1 + part2, full, atol=1e-8)


def test_batch_telemetry():
    g = to_undirected_simple(erdos_renyi(64, 3, rng=25, symmetrize=True))
    res = betweenness_centrality(g, sources=[0, 1, 2, 3])
    assert res.batch_size == 4
    assert res.depth == len(res.frontier_nnz)
    assert all(f > 0 for f in res.frontier_nnz)


def test_mca_rejected():
    g = erdos_renyi(20, 2, rng=26)
    with pytest.raises(MaskError):
        betweenness_centrality(g, algorithm="mca")


def test_empty_sources_and_graph():
    from repro.sparse import CSRMatrix

    g = erdos_renyi(10, 2, rng=27)
    res = betweenness_centrality(g, sources=[])
    assert np.allclose(res.centrality, 0)
    res = betweenness_centrality(CSRMatrix.empty((5, 5)))
    assert np.allclose(res.centrality, 0)


def test_disconnected_components():
    # two disjoint paths; scores must not leak across components
    p = np.zeros((6, 6))
    for i in (0, 1):
        p[i, i + 1] = p[i + 1, i] = 1
    for i in (3, 4):
        p[i, i + 1] = p[i + 1, i] = 1
    res = betweenness_centrality(csr_from_dense(p))
    assert np.allclose(res.centrality, [0, 1, 0, 0, 1, 0])


# ---------------------------------------------------------------------- #
# bit-identity with the sparse NumSP formulation
# ---------------------------------------------------------------------- #
def sparse_numsp_bc(g, sources, algorithm, phases):
    """Brandes with path counts kept in a sparse NumSP: accumulated by
    eWiseAdd, read back at S_d and W by eWiseMult. The dense-``numsp``
    implementation must reproduce it bit for bit."""
    def values_at(pattern, source):
        return ops.ewise_mult(pattern.pattern(), source, op=lambda x, y: y).data

    def product(a, b, mask):
        return masked_spgemm(a, b, mask, algorithm=algorithm,
                             semiring=PLUS_FIRST, phases=phases)

    n = g.nrows
    A = g.pattern()
    AT = ops.transpose_csr(A)
    undirected = A.same_pattern(AT)
    src = (np.arange(n) if sources is None
           else np.asarray(sources, dtype=np.int64))
    s = src.size
    NumSP = _sources_matrix(src, n)
    frontier = product(NumSP, A, Mask.from_matrix(NumSP, complemented=True))
    sigmas = []
    while frontier.nnz:
        sigmas.append(frontier)
        NumSP = ops.ewise_add(NumSP, frontier)
        frontier = product(frontier, A,
                           Mask.from_matrix(NumSP, complemented=True))
    bcu = np.ones((s, n))
    for d in range(len(sigmas) - 1, 0, -1):
        Sd = sigmas[d]
        rows = np.repeat(np.arange(s), Sd.row_nnz())
        W = CSRMatrix(Sd.indptr, Sd.indices,
                      bcu[rows, Sd.indices] / values_at(Sd, NumSP), (s, n),
                      check=False)
        W = product(W, AT, Mask.from_matrix(sigmas[d - 1]))
        rows_w = np.repeat(np.arange(s), W.row_nnz())
        bcu[rows_w, W.indices] += W.data * values_at(W, NumSP)
    centrality = bcu.sum(axis=0) - s
    return centrality / 2.0 if undirected else centrality


GRAPHS = {
    "er-directed": lambda: erdos_renyi(48, 3, rng=31),
    "rmat-undirected": lambda: to_undirected_simple(rmat(6, 4, rng=32)),
}


@pytest.mark.parametrize("mode", ["auto", "off"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("sources", [None, [0, 3, 5, 9, 17, 40]],
                         ids=["all", "batch"])
@pytest.mark.parametrize("phases", [1, 2])
@pytest.mark.parametrize("alg", ["auto", "msa", "hash"])
def test_dense_numsp_bit_identical_to_sparse_formulation(
        native_mode, mode, graph, sources, phases, alg):
    native_mode(mode)
    g = GRAPHS[graph]()
    got = betweenness_centrality(g, sources, algorithm=alg, phases=phases)
    want = sparse_numsp_bc(g, sources, alg, phases)
    assert np.array_equal(got.centrality, want)


def test_level_masks_unchanged_after_return():
    """Each forward level gets its own visited bitmap: a mask captured at
    one level still holds that level's visited set after later levels and
    the return."""
    import repro.algorithms.betweenness as bc_mod

    g = to_undirected_simple(rmat(6, 4, rng=33))
    sources = [0, 3, 5, 9]
    seen = []
    real = bc_mod.masked_spgemm

    def capture(A, B, mask, **kw):
        if mask.complemented:
            seen.append((mask, mask.bitmap.copy()))
        return real(A, B, mask, **kw)

    with mock.patch.object(bc_mod, "masked_spgemm", capture):
        res = bc_mod.betweenness_centrality(g, sources)
    assert len(seen) == res.depth + 1 >= 3
    assert seen[0][1].sum() == len(sources)
    for (mask, snapshot), (_, later) in zip(seen, seen[1:]):
        assert np.array_equal(mask.bitmap, snapshot)
        assert snapshot.sum() < later.sum()  # each level discovers more
    assert np.array_equal(seen[-1][0].bitmap, seen[-1][1])


@pytest.mark.parametrize("graph", [
    lambda: erdos_renyi(40, 3, rng=34),
    lambda: erdos_renyi(40, 3, rng=35, symmetrize=True),
    lambda: to_undirected_simple(rmat(6, 4, rng=36)),
    lambda: CSRMatrix.empty((6, 6)),
    lambda: csr_from_dense(np.array([[1.0, 1.0], [0.0, 1.0]])),
    lambda: csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])),
    # a directed 3-cycle: row and column counts agree, the keys do not
    lambda: csr_from_dense(np.roll(np.eye(3), 1, axis=1)),
])
def test_symmetry_check_matches_the_transpose(graph):
    from repro.algorithms.betweenness import _is_symmetric

    A = graph().pattern()
    assert _is_symmetric(A) == A.same_pattern(ops.transpose_csr(A))


def test_traced_bc_batch_run_serves_every_op(monkeypatch):
    """The benchmark's traced ``bc-batch`` run reads each product's mask
    through its CSR view (to count the kernel's work); a bitmap mask must
    answer those reads, so no op fails."""
    import asyncio
    from pathlib import Path

    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    from harness import run_workload

    res = asyncio.run(run_workload("bc-batch", 5, 0.0, True, size="tiny",
                                   min_ops=4))
    for phase in res["phases"]:
        assert phase.attempted > 0 and phase.failed == 0
    assert res["metrics"]["kernel.calls"] > 0


# ---------------------------------------------------------------------- #
# direction per product: push, pull and auto give the same scores
# ---------------------------------------------------------------------- #
DIRECTION_GRAPHS = {
    "er-directed": lambda: erdos_renyi(300, 4, rng=41),
    "rmat-directed": lambda: rmat(8, 6, rng=42),
    "rmat-undirected": lambda: to_undirected_simple(rmat(8, 8, rng=43)),
}


def _traced_bc(g, sources, algorithm):
    """Run BC and return (result, [(algorithm key, A, B, mask)] per
    product, in call order)."""
    import repro.algorithms.betweenness as bc_mod

    calls = []
    real = bc_mod.masked_spgemm

    def capture(A, B, mask, **kw):
        calls.append((kw["algorithm"], A, B, mask))
        return real(A, B, mask, **kw)

    with mock.patch.object(bc_mod, "masked_spgemm", capture):
        res = bc_mod.betweenness_centrality(g, sources, algorithm=algorithm)
    return res, calls


@pytest.mark.parametrize("mode", ["auto", "off"])
@pytest.mark.parametrize("graph", sorted(DIRECTION_GRAPHS))
def test_push_pull_and_auto_scores_equal(native_mode, mode, graph):
    """Forced push on every product (``msa-native``), forced pull on every
    product (``msa-pull``) and ``auto``'s per-product pick give equal
    centrality arrays, with the compiled tier on and off (where the pull
    delegates to the push)."""
    native_mode(mode)
    g = DIRECTION_GRAPHS[graph]()
    sources = np.flatnonzero(g.row_nnz())[::9][:24]
    push, push_calls = _traced_bc(g, sources, "msa-native")
    pull, pull_calls = _traced_bc(g, sources, "msa-pull")
    auto = betweenness_centrality(g, sources, algorithm="auto")
    assert {c[0] for c in push_calls} == {"msa-native"}
    assert {c[0] for c in pull_calls} == {"msa-pull"}
    assert np.array_equal(push.centrality, pull.centrality)
    assert np.array_equal(push.centrality, auto.centrality)
    assert push.frontier_nnz == pull.frontier_nnz == auto.frontier_nnz


@needs_native
@pytest.mark.parametrize("graph", sorted(DIRECTION_GRAPHS))
def test_auto_picks_the_direction_with_less_exact_work(graph):
    """``auto`` picks ``msa-pull`` exactly when the pull's work, counted
    from scratch by ``forward_work``/``backward_work``, is below the
    push's (so the level loop's running count is exact), and these graphs
    take both directions."""
    from repro.algorithms.betweenness import backward_work, forward_work

    g = DIRECTION_GRAPHS[graph]()
    A = g.pattern()
    AT = ops.transpose_csr(A)
    sources = np.flatnonzero(g.row_nnz())[::9][:24]
    _, calls = _traced_bc(g, sources, "auto")
    picks = []
    for key, F, B, mask in calls:
        if mask.complemented:
            push, pull = forward_work(F, A, AT, mask.bitmap)
        else:
            push, pull = backward_work(F, mask.to_matrix(), A, AT)
        assert key == ("msa-pull" if pull < push else "auto")
        picks.append(key)
    assert set(picks) == {"auto", "msa-pull"}


def test_auto_pushes_without_the_compiled_tier(native_mode):
    native_mode("off")
    g = DIRECTION_GRAPHS["rmat-undirected"]()
    _, calls = _traced_bc(g, np.flatnonzero(g.row_nnz())[:16], "auto")
    assert {c[0] for c in calls} == {"auto"}


def test_forward_work_counts_exactly():
    """``forward_work`` against a per-row, per-column count: push sums A's
    row lengths under the frontier; pull sums Aᵀ's row lengths under each
    live row's unvisited columns, plus one word per 8 bitmap bytes."""
    from repro.algorithms.betweenness import forward_work

    g = erdos_renyi(37, 3, rng=44)
    A = g.pattern()
    AT = ops.transpose_csr(A)
    rng = np.random.default_rng(45)
    visited = rng.random((5, 37)) < 0.4
    F = csr_from_dense((rng.random((5, 37)) < 0.1) * 1.0)
    F = CSRMatrix(F.indptr, F.indices, F.data, (5, 37))
    push = sum(A.row_nnz()[j] for i in range(5) for j in F.row(i)[0])
    pull = sum(((~visited[i]) * AT.row_nnz()).sum() + (37 + 7) // 8
               for i in range(5) if F.row_nnz()[i])
    assert forward_work(F, A, AT, visited) == (push, pull)


def test_backward_mask_shares_the_frontier_arrays():
    """The backward stage's plain mask reads S_{d-1}'s arrays in place: no
    copy, no re-validation."""
    import repro.algorithms.betweenness as bc_mod

    g = to_undirected_simple(rmat(6, 4, rng=46))
    plain = []
    real = bc_mod.masked_spgemm

    def capture(A, B, mask, **kw):
        out = real(A, B, mask, **kw)
        if mask.complemented:
            plain.append(("frontier", out))
        else:
            plain.append(("mask", mask))
        return out

    with mock.patch.object(bc_mod, "masked_spgemm", capture):
        bc_mod.betweenness_centrality(g, [0, 3, 5, 9], algorithm="msa")
    frontiers = [x for kind, x in plain if kind == "frontier"]
    masks = [x for kind, x in plain if kind == "mask"]
    assert masks
    # the backward masks run S_{depth-2} .. S_0, each a forward output
    for mask, S in zip(masks, frontiers[-3::-1]):
        assert mask.indptr is S.indptr and mask.indices is S.indices
