#!/usr/bin/env python3
"""Betweenness centrality and multi-source BFS — the complemented-mask apps.

The forward stage of batch Brandes (paper §8.4) is the motivating use of
*complemented* masks: "extend shortest paths only to vertices not yet
discovered". This example runs the full two-stage algorithm, validates a
hand-checkable case, and shows the same complement pattern in a plain
multi-source BFS.

Run:  python examples/betweenness_and_bfs.py
"""

import numpy as np

from repro import betweenness_centrality, csr_from_dense, multi_source_bfs
from repro.core import display_name
from repro.graphs import load_graph, rmat
from repro.graphs.prep import to_undirected_simple


def main() -> None:
    print("=== Betweenness centrality (batch Brandes on Masked SpGEMM) ===\n")

    # ------------------------------------------------------------------ #
    # a hand-checkable case: a path graph's interior carries all the load
    # ------------------------------------------------------------------ #
    path = np.zeros((5, 5))
    for i in range(4):
        path[i, i + 1] = path[i + 1, i] = 1
    res = betweenness_centrality(csr_from_dense(path))
    print(f"path graph BC: {res.centrality}   (expect [0, 3, 4, 3, 0])")

    # ------------------------------------------------------------------ #
    # batch BC on an R-MAT graph: complement masks in the forward stage,
    # plain masks in the backward stage
    # ------------------------------------------------------------------ #
    g = to_undirected_simple(rmat(9, 8, rng=3))
    rng = np.random.default_rng(0)
    sources = rng.choice(g.nrows, size=64, replace=False)
    for alg in ("msa", "hash"):
        res = betweenness_centrality(g, sources, algorithm=alg)
        top = np.argsort(res.centrality)[::-1][:5]
        print(f"\n{display_name(alg)}: batch of {res.batch_size} sources, "
              f"BFS depth {res.depth}")
        print(f"  top-5 central vertices: {top.tolist()}")
        print(f"  frontier sizes per level: {res.frontier_nnz}")

    # MCA cannot run BC — its accumulator is indexed by mask rank, which the
    # complement does not have (the paper excludes it for the same reason):
    try:
        betweenness_centrality(g, sources[:4], algorithm="mca")
    except Exception as exc:
        print(f"\nMCA on complemented masks correctly refuses: "
              f"{type(exc).__name__}")

    # ------------------------------------------------------------------ #
    # the same ¬visited masking in its simplest form: multi-source BFS
    # ------------------------------------------------------------------ #
    print("\n=== Multi-source BFS (Frontier = ¬Visited ⊙ (Frontier · A)) ===")
    sg = load_graph("grid-24")
    sources = [0, sg.nrows - 1]
    levels = multi_source_bfs(sg, sources)
    for si, s in enumerate(sources):
        reached = int((levels[si] >= 0).sum())
        print(f"  source {s}: reached {reached}/{sg.nrows} vertices, "
              f"eccentricity {levels[si].max()}")


if __name__ == "__main__":
    main()
