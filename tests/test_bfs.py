"""Multi-source BFS vs networkx shortest-path lengths."""

import networkx as nx
import numpy as np
import pytest

from conftest import COMPLEMENT_ALGOS
from repro.algorithms import betweenness_centrality, multi_source_bfs
from repro.graphs import erdos_renyi, grid_graph, rmat, watts_strogatz
from repro.graphs.prep import to_undirected_simple
from repro.sparse.convert import to_scipy


def test_levels_match_networkx():
    g = to_undirected_simple(erdos_renyi(70, 3, rng=31, symmetrize=True))
    G = nx.from_scipy_sparse_array(to_scipy(g))
    sources = [0, 7, 13]
    lv = multi_source_bfs(g, sources)
    for si, s in enumerate(sources):
        want = nx.single_source_shortest_path_length(G, s)
        for v in range(70):
            assert lv[si, v] == want.get(v, -1)


def test_directed_graph():
    g = erdos_renyi(40, 2, rng=32)  # directed
    G = nx.from_scipy_sparse_array(to_scipy(g), create_using=nx.DiGraph)
    lv = multi_source_bfs(g, [3])
    want = nx.single_source_shortest_path_length(G, 3)
    for v in range(40):
        assert lv[0, v] == want.get(v, -1)


def test_grid_distances():
    g = grid_graph(5)  # 5x5 mesh, manhattan distances from corner
    lv = multi_source_bfs(g, [0])
    for r in range(5):
        for c in range(5):
            assert lv[0, r * 5 + c] == r + c


def test_source_level_zero_and_unreachable():
    from repro.sparse import CSRMatrix

    g = CSRMatrix.empty((4, 4))
    lv = multi_source_bfs(g, [2])
    assert lv[0, 2] == 0
    assert (lv[0] == -1).sum() == 3


def test_empty_sources():
    g = erdos_renyi(10, 2, rng=33)
    lv = multi_source_bfs(g, [])
    assert lv.shape == (0, 10)


def test_all_kernels_agree():
    g = to_undirected_simple(erdos_renyi(60, 3, rng=34, symmetrize=True))
    base = multi_source_bfs(g, [0, 5], algorithm="msa")
    for alg in ("hash", "heap", "heapdot"):
        assert np.array_equal(multi_source_bfs(g, [0, 5], algorithm=alg), base)


# frontier shapes a traversal meets: a uniform random graph, a power-law
# graph whose hub explodes the second level, a mesh whose frontiers stay
# narrow over a long diameter, and a ring lattice with few shortcuts
GRAPHS = {
    "er": lambda: to_undirected_simple(
        erdos_renyi(80, 3, rng=35, symmetrize=True)),
    "rmat": lambda: to_undirected_simple(rmat(7, 8, rng=36)),
    "grid": lambda: grid_graph(9),
    "small-world": lambda: to_undirected_simple(
        watts_strogatz(90, 4, 0.05, rng=37)),
}


@pytest.mark.parametrize("alg", COMPLEMENT_ALGOS)
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_every_complement_kernel_matches_networkx(family, alg):
    g = GRAPHS[family]()
    G = nx.from_scipy_sparse_array(to_scipy(g))
    sources = [0, g.nrows // 2, g.nrows - 1]
    lv = multi_source_bfs(g, sources, algorithm=alg)
    for si, s in enumerate(sources):
        want = nx.single_source_shortest_path_length(G, s)
        assert [want.get(v, -1) for v in range(g.nrows)] == lv[si].tolist()


@pytest.mark.parametrize("bad", [-1, 16])
def test_out_of_range_source_rejected(bad):
    g = grid_graph(4)
    with pytest.raises(ValueError, match="out of range"):
        multi_source_bfs(g, [0, bad])
    with pytest.raises(ValueError, match="out of range"):
        betweenness_centrality(g, [bad])
