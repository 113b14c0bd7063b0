"""The paper's §4 memory-traffic formulas, implemented as code.

All quantities are in *words* (the paper assumes index and value words are
the same size). ``L`` is the cache-line length in words and ``Z`` the cache
capacity in words, with the paper's standing assumptions
``nnz(A), nnz(B), nnz(M) ≫ Z`` and ``β(A) > Z``.

* Pull (§4.1): ``nnz(A) + nnz(M) · (1 + nnz(B)/n)`` — every unmasked entry
  re-fetches its whole B column because columns are visited in scattered
  order.
* Push (§4.2): pattern 1 costs ``nnz(A)``, pattern 2 ``nnz(A)·L`` (a full
  line per row-pointer lookup), pattern 3 ``flops(AB)``; pattern 4 (the
  accumulator) depends on the data structure; pattern 5 is ``nnz(C)`` —
  bounded here by ``nnz(M)``.
* Compiled pull (``msa-pull``): the §4.1 form over the *candidate*
  entries instead of nnz(M) — a plain mask's entries, or a complemented
  mask's absent ones (every unvisited column of a BFS bitmap): each folds
  its row of Bᵀ, ``nnz(B)/n`` entries on average, plus A's row scattered
  once.
* §4.3 asymptotics: with input density d and mask density d_m, push grows
  ~d², pull ~d·d_m — :func:`predicted_best` reproduces the crossover logic
  behind Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expand import total_flops
from ..mask import Mask
from ..sparse.csr import CSRMatrix

#: default cache-line length in 8-byte words (64-byte lines)
DEFAULT_L = 8
#: default cache capacity in words (a 1 MiB last-level slice)
DEFAULT_Z = 131_072


def pull_traffic(A: CSRMatrix, B: CSRMatrix, mask: Mask, *, L: int = DEFAULT_L
                 ) -> float:
    """§4.1: ``nnz(A) + nnz(M)(1 + nnz(B)/n)`` words."""
    n = max(B.ncols, 1)
    return float(A.nnz + mask.nnz * (1.0 + B.nnz / n))


def pull_candidates(mask) -> int:
    """Output entries the pull computes a dot for: the mask's entries, or
    its absent ones when complemented. A plain CSR matrix standing in for
    a mask counts as plain."""
    if getattr(mask, "complemented", False):
        return mask.nrows * mask.ncols - mask.nnz
    return mask.nnz


def push_traffic(A: CSRMatrix, B: CSRMatrix, mask: Mask, *, L: int = DEFAULT_L
                 ) -> float:
    """§4.2 patterns 1-3 and 5 (accumulator term added separately):
    ``nnz(A) + nnz(A)·L + flops(AB) + nnz(M)``."""
    return float(A.nnz + A.nnz * L + total_flops(A, B) + mask.nnz)


def accumulator_traffic(algorithm: str, A: CSRMatrix, B: CSRMatrix, mask: Mask,
                        *, L: int = DEFAULT_L, Z: int = DEFAULT_Z) -> float:
    """Pattern-4 (scatter/accumulate) traffic model per accumulator.

    The discriminating quantity is the accumulator *working set*: when it
    fits in cache the scatter traffic is amortized to the compulsory
    footprint; when it does not, every access is charged a cache line.

    * MSA: working set = 2·ncols words (dense states+values).
    * Hash: = 3·nnz(m̄)/0.25 words per row (keys, states+values at LF 0.25),
      with m̄ the mean mask-row population.
    * MCA: = 2·nnz(m̄) words.
    * Heap / HeapDot: no scatter table at all — the merge is streaming; the
      working set is the iterator heap, nnz(ū) entries.
    """
    flops = total_flops(A, B)
    touches = flops + mask.nnz  # every product + every mask mark/gather
    nrows = max(mask.nrows, 1)
    mean_m = mask.nnz / nrows
    mean_u = A.nnz / max(A.nrows, 1)
    algorithm = algorithm.lower()
    if algorithm == "msa":
        ws = 2.0 * B.ncols
    elif algorithm == "hash":
        ws = 3.0 * mean_m / 0.25
    elif algorithm == "mca":
        ws = 2.0 * mean_m
    elif algorithm in ("heap", "heapdot"):
        ws = 3.0 * mean_u
    elif algorithm == "inner":
        return 0.0  # pull has no accumulator; its cost is in pull_traffic
    else:
        raise ValueError(f"no accumulator-traffic model for {algorithm!r}")
    if ws <= Z:
        return float(touches / L + ws)  # line-amortized + compulsory
    return float(touches)  # every touch misses


@dataclass(frozen=True)
class TrafficModel:
    """Total predicted traffic (words) for one algorithm on one problem."""

    algorithm: str
    words: float

    @property
    def bytes(self) -> float:
        return self.words * 8.0


def total_traffic(algorithm: str, A: CSRMatrix, B: CSRMatrix, mask: Mask,
                  *, L: int = DEFAULT_L, Z: int = DEFAULT_Z) -> TrafficModel:
    """Effective-cost model used for *ranking* algorithms.

    :func:`pull_traffic` / :func:`push_traffic` are the paper's formulas
    verbatim, derived under the standing assumption ``nnz(A), nnz(B),
    nnz(M) ≫ Z``. At laptop scales that assumption often fails, so the
    ranking model adds two calibrations (both mechanical, not fitted):

    * when B fits in cache (``2·nnz(B) ≤ Z``), the push row-pointer term is
      not a full line per lookup (drop the ·L) and pull's column re-fetch
      amortizes after the first pass;
    * per-dot *compute* surcharges that the traffic formulas ignore: the
      pull dot walks ``A_i*`` once per unmasked entry, and the heap pays a
      log₂(nnz(u)) factor per merged element.

    ``msa-pull`` takes the §4.1 form over its candidate entries
    (:func:`pull_candidates`), with neither calibration: its scatter
    scratch holds A's row, not B.
    """
    import math

    algorithm = algorithm.lower()
    b_cached = 2.0 * B.nnz <= Z
    mean_a = A.nnz / max(A.nrows, 1)
    if algorithm == "msa-pull":
        n = max(B.ncols, 1)
        words = A.nnz + pull_candidates(mask) * (1.0 + B.nnz / n)
        return TrafficModel(algorithm, words)
    if algorithm == "inner":
        n = max(B.ncols, 1)
        refetch = B.nnz / n if not b_cached else 0.0
        words = A.nnz + mask.nnz * (1.0 + refetch)
        words += mask.nnz * mean_a  # two-pointer walk over A's row per dot
        return TrafficModel("inner", words)
    rowptr = A.nnz * (L if not b_cached else 1)
    base = float(A.nnz + rowptr + total_flops(A, B) + mask.nnz)
    acc = accumulator_traffic(algorithm, A, B, mask, L=L, Z=Z)
    extra = 0.0
    if algorithm in ("heap", "heapdot"):
        k = max(2.0, mean_a)
        extra = total_flops(A, B) * (math.log2(k) - 1.0) * 0.25
    return TrafficModel(algorithm, base + acc + max(extra, 0.0))


def predicted_best(A: CSRMatrix, B: CSRMatrix, mask: Mask,
                   candidates: tuple[str, ...] = ("inner", "msa", "hash", "mca",
                                                  "heap", "heapdot"),
                   *, L: int = DEFAULT_L, Z: int = DEFAULT_Z) -> str:
    """Algorithm with the lowest modeled cost — the model's Fig. 7 cell."""
    best, best_words = None, float("inf")
    for alg in candidates:
        w = total_traffic(alg, A, B, mask, L=L, Z=Z).words
        if w < best_words:
            best, best_words = alg, w
    return best
