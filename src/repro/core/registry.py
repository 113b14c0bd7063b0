"""Algorithm registry: names, metadata and kernel lookup.

The paper's evaluation names algorithms ``<Alg>-<Phases>`` (e.g. ``MSA-1P``,
``Hash-2P``). Here the algorithm key and phase count are separate arguments
to :func:`repro.core.api.masked_spgemm`; :func:`display_name` produces the
paper-style label, and :func:`parse_name` accepts it back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..errors import AlgorithmError
from ..semiring import PLUS_TIMES
from . import (
    esc_kernel,
    hash_kernel,
    heap_kernel,
    inner_kernel,
    mca_kernel,
    msa_kernel,
)
from .expand import total_flops


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata + kernel entry points for one Masked SpGEMM algorithm.

    ``numeric_into`` is the optional direct-write variant of the numeric
    pass (see :mod:`repro.core.types`): given planned per-row offsets it
    scatters straight into preallocated CSR arrays, which is how two-phase
    plans skip the stitch copy. The chunk-fused kernels provide it; per-row
    kernels leave it None and keep the stitch path.

    ``listed=False`` marks routing tiers: keys :func:`auto_select` may
    return and :func:`get_spec` resolves, but that stay out of
    :func:`available_algorithms` (they are alternate execution strategies
    of a listed algorithm, not distinct algorithms).
    """

    key: str
    label: str
    family: str  # "push" or "pull"
    numeric: Callable
    symbolic: Callable
    supports_complement: bool
    description: str
    numeric_into: Optional[Callable] = None
    listed: bool = True


_SPECS: dict[str, AlgorithmSpec] = {
    "msa": AlgorithmSpec(
        "msa", "MSA", "push",
        msa_kernel.numeric_rows, msa_kernel.symbolic_rows, True,
        "Masked Sparse Accumulator (paper §5.2), chunk-fused: one batched "
        "mask test + scatter per chunk (np.bincount fast path for +)",
        numeric_into=msa_kernel.numeric_rows_into,
    ),
    "esc": AlgorithmSpec(
        "esc", "ESC", "push",
        esc_kernel.numeric_rows, esc_kernel.symbolic_rows, True,
        "Chunk-fused expand-sort-compress: batched expansion, composite-key "
        "segmented reduction, chunk-wide mask intersection (no per-row work)",
        numeric_into=esc_kernel.numeric_rows_into,
    ),
    "hash": AlgorithmSpec(
        "hash", "Hash", "push",
        hash_kernel.numeric_rows, hash_kernel.symbolic_rows, True,
        "Open-addressing hash accumulator, LF 0.25 (paper §5.3), chunk-fused: "
        "the probe loop batches across all rows via per-row table offsets",
        numeric_into=hash_kernel.numeric_rows_into,
    ),
    "mca": AlgorithmSpec(
        "mca", "MCA", "push",
        mca_kernel.numeric_rows, mca_kernel.symbolic_rows, False,
        "Mask Compressed Accumulator indexed by mask rank (paper §5.4)",
    ),
    "heap": AlgorithmSpec(
        "heap", "Heap", "push",
        heap_kernel.numeric_rows, heap_kernel.symbolic_rows, True,
        "K-way merge with NInspect=1 mask peeking (paper §5.5), chunk-fused: "
        "one composite-key stable sort + segmented collapse per chunk",
        numeric_into=heap_kernel.numeric_rows_into,
    ),
    "heapdot": AlgorithmSpec(
        "heapdot", "HeapDot", "push",
        heap_kernel.numeric_rows_heapdot, heap_kernel.symbolic_rows, True,
        "K-way merge with NInspect=∞ full mask inspection (paper §5.5)",
    ),
    "inner": AlgorithmSpec(
        "inner", "Inner", "pull",
        inner_kernel.numeric_rows, inner_kernel.symbolic_rows, False,
        "Pull-based sparse dot products over mask entries (paper §4.1)",
    ),
    "msa-loop": AlgorithmSpec(
        "msa-loop", "MSA(loop)", "push",
        msa_kernel.numeric_rows_loop, msa_kernel.symbolic_rows, True,
        "Per-row MSA loop (paper Alg. 2 verbatim): the routing tier "
        "auto_select's fused fallback picks for long rows, which amortize "
        "its per-row dispatch cost",
        listed=False,
    ),
}


def _native_entry(fn_name: str) -> Callable:
    """Late-bound reference into :mod:`repro.native.kernels` — the native
    package imports kernel modules from this package, so binding at call
    time (instead of importing it here) keeps the import graph acyclic
    regardless of which module loads first. The wrapper never probes: the
    native faces themselves delegate to the fused kernels when the
    compiled tier is unavailable."""
    def call(*args, **kwargs):
        from ..native import kernels as native_kernels

        return getattr(native_kernels, fn_name)(*args, **kwargs)

    call.__name__ = fn_name
    return call


#: the compiled tier (repro.native): an execution strategy of msa, not a
#: new algorithm — listed=False like msa-loop, resolvable + plan-able, and
#: self-delegating to the fused kernels when no backend compiled
_SPECS["msa-native"] = AlgorithmSpec(
    "msa-native", "MSA(native)", "push",
    _native_entry("msa_numeric_rows"), _native_entry("msa_symbolic_rows"),
    True,
    "Compiled (C via cffi) MSA accumulator loops (two states and "
    "a branch-free flop loop for plain masks, a bitset gather for "
    "complemented ones) and a pattern-only symbolic row-size loop with "
    "nogil chunk calls and per-thread scratch reused across calls; "
    "auto_select's first choice whenever the compiled tier can run the "
    "product, and the faces delegate to the fused numpy kernel when it "
    "cannot",
    numeric_into=_native_entry("msa_numeric_rows_into"),
    listed=False,
)
#: the compiled pull direction of msa (paper §4.1's Inner side): per output
#: row, each candidate column folds its row of Bᵀ against A's row. The
#: candidates are a plain mask's entries or a complemented bitmap's zero
#: bytes, so the complement objection to Inner ("a dot per absent entry")
#: does not hold for a bitmap. Same bits and same pattern as msa, so its
#: symbolic face is msa-native's. betweenness_centrality picks it per
#: product by exact push/pull work; auto_select never returns it
_SPECS["msa-pull"] = AlgorithmSpec(
    "msa-pull", "MSA(pull)", "pull",
    _native_entry("msa_pull_numeric_rows"),
    _native_entry("msa_symbolic_rows"), True,
    "Compiled (C via cffi) pull loop: A's row scattered into per-thread "
    "scratch, one fold over a row of Bᵀ (from a transpose memo) per "
    "candidate column in the push loops' stream order; a complemented CSR "
    "mask, or a product the compiled tier cannot run, delegates to the "
    "msa push",
    numeric_into=_native_entry("msa_pull_numeric_rows_into"),
    listed=False,
)
#: an unlisted alias that runs the fused hash kernels. Its only reader is
#: perfbench/regret.py, which times "hash-native" in every traced run
_SPECS["hash-native"] = replace(
    _SPECS["hash"], key="hash-native", listed=False,
    description="Alias of the fused hash kernels, kept resolvable for "
                "perfbench's routing-regret probe")

#: base kernel behind each native routing key (degrade ladder + display)
NATIVE_BASE = {"msa-native": "msa", "msa-pull": "msa"}

#: native routing key for each fused accumulator kernel. msa-loop maps to
#: msa-native too: the compiled loop *is* the per-row dense accumulator
#: that tier exists for, minus the interpreter overhead.
_NATIVE_VARIANT = {"msa": "msa-native", "msa-loop": "msa-native"}


def native_variant(key: str) -> str:
    """The compiled routing key for ``key`` when the native tier is
    available on this machine, else ``key`` unchanged — how
    ``tests/test_thread_substrate.py``, ``tests/test_native.py`` and
    ``benchmarks/bench_native.py`` name the kernel they exercise without
    caring whether this machine compiled the tier."""
    mapped = _NATIVE_VARIANT.get(key.lower())
    if mapped is None:
        return key
    from .. import native

    return mapped if native.native_available() else key

#: Baselines are dispatched separately (they are whole-matrix functions, not
#: row kernels) but listed so harnesses can enumerate everything.
BASELINE_KEYS = ("saxpy", "saxpy-scipy", "dot")


def get_spec(key: str) -> AlgorithmSpec:
    try:
        return _SPECS[key.lower()]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {key!r}; kernels: {sorted(_SPECS)}, "
            f"baselines: {list(BASELINE_KEYS)}"
        ) from None


def available_algorithms(*, complemented: bool | None = None,
                         include_baselines: bool = False) -> list[str]:
    """Algorithm keys, optionally filtered by complement support."""
    keys = [k for k, s in _SPECS.items() if s.listed
            and (complemented is None or not complemented
                 or s.supports_complement)]
    if include_baselines:
        keys += list(BASELINE_KEYS)
    return keys


def algorithm_info(key: str) -> AlgorithmSpec:
    return get_spec(key)


def display_name(key: str, phases: int = 1) -> str:
    """Paper-style label, e.g. ``display_name("msa", 2) == "MSA-2P"``."""
    base = {"saxpy": "SS:SAXPY*", "saxpy-scipy": "SS:SAXPY*(scipy)",
            "dot": "SS:DOT*"}.get(key.lower())
    if base is not None:
        return base
    return f"{get_spec(key).label}-{phases}P"


def parse_name(name: str) -> tuple[str, int]:
    """Inverse of :func:`display_name` for kernel algorithms:
    ``"MSA-1P" -> ("msa", 1)``. Bare keys default to one phase."""
    s = name.strip().lower()
    phases = 1
    if s.endswith("-1p"):
        s, phases = s[:-3], 1
    elif s.endswith("-2p"):
        s, phases = s[:-3], 2
    get_spec(s)  # validate
    return s, phases


#: Average partial products per output row from which the per-row
#: ``msa-loop`` tier beats the chunk-fused ``msa`` in the fused fallback of
#: :func:`auto_select`. A least-squares fit (relative error) over the fit
#: cells of ``tools/check_routing.py`` with ``REPRO_NATIVE=off`` prices the
#: loop at about 31 µs per row plus 16 ns per product and fused msa at about
#: 61 ns per product; the two cross near 690 products per row.
LOOP_ROW_FLOPS = 700


def auto_select(A, B, mask, *, semiring=None) -> str:
    """Pick the kernel for ``mask ⊙ (A·B)`` under ``semiring`` (None means
    ``PLUS_TIMES``, the :func:`~repro.core.api.masked_spgemm` default).

    **Native first.** When the compiled tier (:mod:`repro.native`) can run
    the product itself — a backend probed available, the semiring is in
    its op table, the operands are float64/int64 and the output is at most
    :data:`~repro.native.kernels.MSA_NCOLS_CAP` (2^22) columns wide — the
    pick is ``msa-native``, for plain and complemented masks alike. Its
    dense accumulator is reused per thread, so wide outputs cost no
    per-call set-up and need no hash rule. The paper's Fig. 7 regimes
    assume every kernel pays the same per-row constant; the compiled loops
    restore that: msa-native wins every cell of ``tools/check_routing.py``
    (the Fig. 7 grid, its wide-output column and the held-out R-MAT
    products), including the mask ≪ inputs corner the pull kernel was
    meant for.

    **Fused fallback.** Otherwise one rule, fitted on the Fig. 7 grid plus
    a wide-output column and checked on held-out R-MAT products
    (``tools/check_routing.py``): rows averaging at least
    :data:`LOOP_ROW_FLOPS` partial products go to the per-row ``msa-loop``
    tier, whose per-row dispatch cost they amortize, and everything else
    to the chunk-fused ``msa``, plain and complemented masks alike. Fused
    ``msa`` works in mask-rank space and allocates nothing ``ncols`` wide,
    so wide outputs need no ``hash`` rule. The density regimes the paper
    reads off Fig. 7 (``inner`` for sparse masks, ``heap`` for sparse
    inputs, ``esc`` for short rows) win some cells of that grid, but as
    rules they lost more on the cells they misrouted than they saved;
    those kernels stay registry keys.
    """
    from ..native import kernels as native_kernels

    semiring = PLUS_TIMES if semiring is None else semiring
    if native_kernels.eligible(A, B, mask, semiring):
        return "msa-native"
    if total_flops(A, B) >= LOOP_ROW_FLOPS * max(A.nrows, 1):
        return "msa-loop"
    return "msa"
