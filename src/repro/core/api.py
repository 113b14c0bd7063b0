"""Public entry points: :func:`masked_spgemm` and :func:`spgemm`.

``masked_spgemm`` dispatches over

* **algorithm** — ``msa | hash | mca | heap | heapdot | inner`` (the paper's
  kernels), ``esc`` (chunk-fused expand-sort-compress), the baselines
  ``saxpy | saxpy-scipy | dot`` (SS:GB stand-ins), or ``auto``
  (native-first: the compiled ``msa-native`` when it can run the product,
  else the fused ``msa-loop`` for long rows and ``msa``
  otherwise; see :func:`repro.core.registry.auto_select`);
* **phases** — 1 (one-phase) or 2 (symbolic + numeric, paper §6);
* **tier** — ``vectorized`` (numpy kernels) or ``reference`` (pure-Python,
  faithful to the pseudocode);
* **executor** — optional :mod:`repro.parallel` executor for row-parallel
  execution.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..mask import Mask
from ..semiring import PLUS_TIMES, Semiring
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_multiplicable
from . import baselines, registry
from .plain import plain_spgemm
from .reference import reference_masked_spgemm
from .types import stitch_blocks


def spgemm(A: CSRMatrix, B: CSRMatrix, semiring: Semiring = PLUS_TIMES) -> CSRMatrix:
    """Plain (unmasked) sparse matrix-matrix product, C = A·B."""
    return plain_spgemm(A, B, semiring)


def masked_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    mask: Mask | CSRMatrix | None = None,
    *,
    algorithm: str = "auto",
    semiring: Semiring = PLUS_TIMES,
    phases: int = 1,
    tier: str = "vectorized",
    executor=None,
    verify_symbolic: bool = True,
    plan=None,
) -> CSRMatrix:
    """Compute ``C = M ⊙ (A·B)`` (or ``¬M ⊙ (A·B)`` for complemented masks).

    Parameters
    ----------
    A, B : CSRMatrix
        Operands; ``A`` is m×k, ``B`` is k×n.
    mask : Mask, CSRMatrix or None
        The structural mask. A CSRMatrix is interpreted as a
        non-complemented mask over its stored pattern. ``None`` means "no
        mask" (the full complemented-empty mask), i.e. plain SpGEMM through
        the masked machinery. A bitmap mask (:meth:`Mask.from_bitmap`)
        serves every algorithm, bit-identically to its CSR equivalent.
    algorithm : str
        Kernel or baseline name (see module docstring). ``auto`` picks the
        compiled kernel when it is eligible; only otherwise does it pick
        between the fused ``msa`` and the per-row ``msa-loop`` by the
        average partial products per row.
    phases : int
        1 = one-phase (numeric only, upper-bound temp buffers);
        2 = two-phase (symbolic pass computes the exact output pattern size
        before the numeric pass — paper §6).
    tier : str
        ``vectorized`` (default) or ``reference``.
    executor : optional
        A :mod:`repro.parallel` executor; ``None`` runs serially.
    verify_symbolic : bool
        In two-phase mode, cross-check the symbolic row sizes against the
        numeric result (cheap; catches kernel divergence). Disable for
        benchmarking. Note: the direct-write path (fused kernels, two-phase)
        *always* validates computed sizes against the planned offsets before
        writing — scattering through stale sizes would corrupt neighbouring
        rows — so a stale plan raises there regardless of this flag; the
        flag only governs the redundant final cross-check and the non-fused
        serial path.
    plan : SymbolicPlan, optional
        A precomputed plan from :func:`repro.core.plan.build_plan`.
        Supplying one skips algorithm
        auto-selection and — in two-phase mode — the symbolic pass, using the
        plan's cached row sizes instead. The plan must have been built for
        operands with the *same patterns* (values may differ); with
        ``verify_symbolic`` the numeric result is still cross-checked against
        the planned sizes, so a stale plan fails loudly. Two-phase requests
        with known row sizes (cached or freshly computed) and a chunk-fused
        kernel run the *direct-write* numeric pass: the output CSR arrays are
        preallocated from the row sizes and chunks scatter into disjoint
        slices with zero stitch copies. Kernels without a direct-write
        numeric pass keep the stitch path.

    Returns
    -------
    CSRMatrix
        Canonical CSR output. Entries where the (semiring) sum produced the
        additive identity are kept if the accumulator was touched — matching
        GraphBLAS, which distinguishes stored zeros from absent entries.
    """
    out_shape = check_multiplicable(A.shape, B.shape)
    if mask is None:
        mask = Mask.full(out_shape)
    elif isinstance(mask, CSRMatrix):
        mask = Mask.from_matrix(mask)
    mask.check_output_shape(out_shape)

    algorithm = algorithm.lower()
    if plan is not None:
        plan.check_output_shape(out_shape)
        if algorithm not in ("auto", plan.algorithm):
            raise AlgorithmError(
                f"plan was built for algorithm {plan.algorithm!r}, "
                f"got algorithm={algorithm!r}"
            )
        algorithm = plan.algorithm
    elif algorithm == "auto":
        algorithm = registry.auto_select(A, B, mask, semiring=semiring)

    if phases not in (1, 2):
        raise AlgorithmError(f"phases must be 1 or 2, got {phases!r}")

    # ----- baselines (whole-matrix code paths) ------------------------- #
    if algorithm == "saxpy":
        return baselines.saxpy_masked_spgemm(A, B, mask, semiring)
    if algorithm == "saxpy-scipy":
        return baselines.saxpy_masked_spgemm(A, B, mask, semiring, use_scipy=True)
    if algorithm == "dot":
        return baselines.dot_masked_spgemm(A, B, mask, semiring)

    # ----- reference tier ---------------------------------------------- #
    if tier == "reference":
        return reference_masked_spgemm(A, B, mask, algorithm, semiring)
    if tier != "vectorized":
        raise AlgorithmError(f"unknown tier {tier!r}; use 'vectorized' or 'reference'")

    spec = registry.get_spec(algorithm)
    if mask.complemented and not spec.supports_complement:
        # kernels raise their own specific error; call numeric to surface it
        spec.numeric(A, B, mask, semiring, np.empty(0, dtype=INDEX_DTYPE))

    # ----- parallel / direct-write path ---------------------------------- #
    # two-phase requests on a chunk-fused kernel also route serial execution
    # through the runner: it preallocates the output from the (cached or
    # captured) row sizes and scatters chunks directly, with cache-budget
    # chunk sizing
    if executor is not None or (phases == 2 and spec.numeric_into is not None):
        from ..parallel.runner import parallel_masked_spgemm, uses_direct_write

        C = parallel_masked_spgemm(
            A, B, mask, algorithm=algorithm, semiring=semiring,
            phases=phases, executor=executor, plan=plan,
        )
        # the cross-check only means something on the stitch path: direct
        # write builds indptr *from* the plan and validated computed sizes
        # per chunk already, so re-deriving row sizes would compare the plan
        # with itself on every replay
        if (phases == 2 and verify_symbolic and plan is not None
                and plan.row_sizes is not None
                and not uses_direct_write(algorithm, phases)
                and not np.array_equal(plan.row_sizes, np.diff(C.indptr))):
            raise AlgorithmError(
                f"{algorithm}: planned row sizes differ from the numeric "
                f"result — stale plan (operand patterns changed since it "
                f"was built)"
            )
        return C

    # ----- serial vectorized path ---------------------------------------- #
    rows = np.arange(out_shape[0], dtype=INDEX_DTYPE)
    symbolic_sizes = None
    if phases == 2:
        if plan is not None and plan.row_sizes is not None:
            symbolic_sizes = plan.row_sizes  # cached symbolic pass
        else:
            symbolic_sizes = spec.symbolic(A, B, mask, rows)
    block = spec.numeric(A, B, mask, semiring, rows)
    if symbolic_sizes is not None and verify_symbolic:
        if not np.array_equal(symbolic_sizes, block.sizes):
            raise AlgorithmError(
                f"{algorithm}: symbolic phase predicted row sizes that differ "
                f"from the numeric result — "
                + ("stale plan (operand patterns changed since it was built)"
                   if plan is not None else "kernel bug")
            )
    return stitch_blocks([block], out_shape[0], out_shape[1])
