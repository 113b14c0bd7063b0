"""The benchmark's three workloads (see README.md for why each exists).

Each workload builds its inputs from the seed, serves ops through the
stack's public entry points, and checks every op against an oracle that is
computed after set-up (so oracle time is never part of ``setup_s``).

A workload exposes:

* ``clients`` — closed-loop clients driving it concurrently;
* ``async setup()`` — everything a user pays before the first op: graph
  generation and preparation, engine/server construction, registration,
  native warm-up and plan priming;
* ``oracle()`` — expected outputs, per-op flops and the distinct products
  the routing-regret probe times;
* ``async op(client, seq)`` — one op, returning ``(output, kind)``;
  ``kind`` identifies ops that do identical work, so per-op counts can be
  averaged per kind;
* ``check(kind, output)`` and ``flops(kind)``;
* ``counters()`` — cumulative layer counters the spans cannot see;
* ``async close()``.
"""

from __future__ import annotations

import numpy as np

#: full sizes (the benchmark) and tiny sizes (the self-tests)
SIZES = {
    "tc-warm": {"full": {"scale": 13, "edge_factor": 8},
                "tiny": {"scale": 7, "edge_factor": 8}},
    "ktruss-stream": {"full": {"scale": 10, "edge_factor": 8, "k": 5,
                               "graphs": 8},
                      "tiny": {"scale": 7, "edge_factor": 8, "k": 4,
                               "graphs": 2}},
    "bc-batch": {"full": {"scale": 11, "edge_factor": 8, "graphs": 8,
                          "batches": 1, "batch": 64},
                 "tiny": {"scale": 7, "edge_factor": 8, "graphs": 2,
                          "batches": 2, "batch": 8}},
}

#: inputs of a cycle whose products the routing-regret probe times (the
#: probe runs every candidate kernel on every product, and all inputs of a
#: cycle would not fit a traced run's time budget)
REGRET_INPUTS = 2

#: tolerance of the bc-batch oracle: auto routing and the msa reference
#: accumulate the same path counts in different orders
BC_RTOL = 1e-9
BC_ATOL = 1e-9


class Product:
    """One distinct masked product, kept for the routing-regret probe."""

    __slots__ = ("A", "B", "mask", "semiring", "phases")

    def __init__(self, A, B, mask, semiring, phases):
        self.A, self.B, self.mask = A, B, mask
        self.semiring, self.phases = semiring, phases


class _Capture:
    """Temporarily wrap ``owner.masked_spgemm`` to count flops (2 per
    partial product) and keep each product's operands."""

    def __init__(self, owner):
        self.owner = owner
        self.flops = 0
        self.products: list[Product] = []

    def __enter__(self):
        from repro.core.expand import total_flops
        from repro.mask import Mask

        self.original = original = self.owner.masked_spgemm

        def capture(A, B, mask=None, **kwargs):
            self.flops += 2 * total_flops(A, B)
            m = mask if isinstance(mask, Mask) else Mask.from_matrix(mask)
            self.products.append(Product(A, B, m, kwargs["semiring"],
                                         kwargs.get("phases", 1)))
            return original(A, B, mask, **kwargs)

        self.owner.masked_spgemm = capture
        return self

    def __exit__(self, *exc):
        self.owner.masked_spgemm = self.original


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


class TcWarm:
    """Triangle counting C = L ⊙ (L·L) on the warm-plan serving path: two
    closed-loop clients, each owning one graph, through one AsyncServer."""

    name = "tc-warm"
    clients = 2

    def __init__(self, seed: int, size: str = "full"):
        self.seed, self.p = seed, SIZES[self.name][size]

    async def setup(self):
        from repro.graphs.generators import rmat
        from repro.graphs.prep import triangle_prep
        from repro.service import AsyncServer, Engine, Request

        self.graphs = [triangle_prep(rmat(self.p["scale"],
                                          self.p["edge_factor"], rng=r))
                       for r in _rngs(self.seed, self.clients)]
        self.engine = Engine(tracing=False)
        self.server = await AsyncServer(self.engine, workers=2).start()
        self.requests = []
        for i, g in enumerate(self.graphs):
            self.engine.register(f"L{i}", g)
            self.requests.append(Request(
                a=f"L{i}", b=f"L{i}", mask=f"L{i}", algorithm="auto",
                phases=2, semiring="plus_pair", tag=f"tc{i}"))
        for req in self.requests:  # prime the plans (cold symbolic pass)
            await self.server.submit(req)

    def oracle(self):
        from repro import masked_spgemm
        from repro.core.expand import total_flops
        from repro.mask import Mask
        from repro.semiring import PLUS_PAIR

        self.expected = [masked_spgemm(g, g, g, algorithm="saxpy-scipy",
                                       semiring=PLUS_PAIR)
                         for g in self.graphs]
        self._flops = [2 * total_flops(g, g) for g in self.graphs]
        self.products = [Product(g, g, Mask.from_matrix(g), PLUS_PAIR, 2)
                         for g in self.graphs]
        self.verdict = ("bit-identical to saxpy-scipy; triangles "
                        + ", ".join(f"{int(e.data.sum())}"
                                    for e in self.expected))

    async def op(self, client, seq):
        resp = await self.server.submit(self.requests[client])
        return resp.result, client

    def check(self, kind, out) -> bool:
        exp = self.expected[kind]
        return (out.shape == exp.shape
                and np.array_equal(out.indptr, exp.indptr)
                and np.array_equal(out.indices, exp.indices)
                and np.array_equal(out.data, exp.data))

    def flops(self, kind) -> int:
        return self._flops[kind]

    def counters(self) -> dict:
        st = self.server.stats
        return {"completed": st.completed, "batches": st.batches,
                "failed": st.failed}

    async def close(self):
        await self.server.close()
        self.engine.close()


class KtrussStream:
    """k-truss by streaming deletes: every solve re-registers an unpruned
    graph on one long-lived engine with a result cache, then alternates the
    support product (read) with a delete-only apply_delta (write). Ops
    cycle over several seeded graphs: the iteration count of one R-MAT
    graph varies from seed to seed, and the cycle averages it out."""

    name = "ktruss-stream"
    clients = 1

    def __init__(self, seed: int, size: str = "full"):
        self.seed, self.p = seed, SIZES[self.name][size]
        self.cycle = self.p["graphs"]

    async def setup(self):
        from repro.algorithms.ktruss import ktruss_delta
        from repro.graphs.generators import rmat
        from repro.graphs.prep import to_undirected_simple
        from repro.service import Engine

        self.graphs = [to_undirected_simple(
            rmat(self.p["scale"], self.p["edge_factor"], rng=rng))
            for rng in _rngs(self.seed, self.cycle)]
        self.engine = Engine(tracing=False, result_cache_bytes=512 << 20)
        # priming solves: plans and results for every iteration's pattern
        for g in self.graphs:
            ktruss_delta(g, self.p["k"], engine=self.engine, prepared=True)

    def oracle(self):
        import repro.service.engine as engine_mod
        from repro.algorithms.ktruss import ktruss
        from repro.service import Engine

        self.expected, self._flops, self.products = [], [], []
        iterations = []
        for i, g in enumerate(self.graphs):
            with _Capture(engine_mod) as cap:
                ref = ktruss(g, self.p["k"], prepared=True,
                             engine=Engine(tracing=False))
            self.expected.append(ref.subgraph)
            self._flops.append(ref.total_flops)
            iterations.append(ref.iterations)
            for prod in cap.products:  # the served path runs two-phase
                prod.phases = 2
            if i < REGRET_INPUTS:
                self.products.extend(cap.products)
        self.verdict = (f"subgraphs equal to full re-plan ktruss() on "
                        f"{len(self.graphs)} graphs, iterations {iterations}")

    async def op(self, client, seq):
        from repro.algorithms.ktruss import ktruss_delta

        kind = seq % self.cycle
        res = ktruss_delta(self.graphs[kind], self.p["k"], engine=self.engine,
                           prepared=True)
        return res.subgraph, kind

    def check(self, kind, out) -> bool:
        exp = self.expected[kind]
        return (out.shape == exp.shape
                and np.array_equal(out.indptr, exp.indptr)
                and np.array_equal(out.indices, exp.indices))

    def flops(self, kind) -> int:
        return self._flops[kind]

    def counters(self) -> dict:
        return {}

    async def close(self):
        self.engine.close()


class BcBatch:
    """Batched betweenness centrality with auto routing, cycling a seeded
    list of source batches over several seeded graphs: every product has
    a fresh mask. A batch's BFS depth sets how many products it runs, and
    depth is a property of the graph that varies from seed to seed, so the
    cycle spans several graphs."""

    name = "bc-batch"
    clients = 1

    def __init__(self, seed: int, size: str = "full"):
        self.seed, self.p = seed, SIZES[self.name][size]
        self.cycle = self.p["graphs"] * self.p["batches"]

    async def setup(self):
        from repro import native
        from repro.graphs.generators import rmat
        from repro.graphs.prep import to_undirected_simple

        nb, bs = self.p["batches"], self.p["batch"]
        self.graphs, self.jobs = [], []
        rngs = _rngs(self.seed, 2 * self.p["graphs"])
        for graph_rng, source_rng in zip(rngs[::2], rngs[1::2]):
            g = to_undirected_simple(
                rmat(self.p["scale"], self.p["edge_factor"], rng=graph_rng))
            # sources from non-isolated vertices only: an isolated source
            # adds no work, and how many R-MAT draws hit one varies by seed
            picks = source_rng.choice(np.flatnonzero(g.row_nnz()), nb * bs,
                                      replace=False)
            self.jobs += [(g, np.sort(picks[i * bs:(i + 1) * bs]))
                          for i in range(nb)]
            self.graphs.append(g)
        native.warmup()

    def oracle(self):
        import repro.algorithms.betweenness as bc_mod

        self.expected, self._flops, self.products = [], [], []
        for i, (g, batch) in enumerate(self.jobs):
            with _Capture(bc_mod) as cap:
                ref = bc_mod.betweenness_centrality(g, batch, algorithm="msa")
            self.expected.append(ref.centrality)
            self._flops.append(cap.flops)
            if i < REGRET_INPUTS:
                self.products.extend(cap.products)
        self.verdict = (f"scores match fused msa within rtol={BC_RTOL}, "
                        f"atol={BC_ATOL} over {len(self.jobs)} batches on "
                        f"{len(self.graphs)} graphs")

    async def op(self, client, seq):
        from repro.algorithms.betweenness import betweenness_centrality

        kind = seq % self.cycle
        g, batch = self.jobs[kind]
        res = betweenness_centrality(g, batch, algorithm="auto")
        return res.centrality, kind

    def check(self, kind, out) -> bool:
        return bool(np.allclose(out, self.expected[kind], rtol=BC_RTOL,
                                atol=BC_ATOL))

    def flops(self, kind) -> int:
        return self._flops[kind]

    def counters(self) -> dict:
        return {}

    async def close(self):
        pass


WORKLOADS = {w.name: w for w in (TcWarm, KtrussStream, BcBatch)}
