"""Symbolic execution plans for Masked SpGEMM.

The paper's two-phase formulation (§6) splits a masked product into a
*symbolic* pass (exact output-row sizes from the patterns alone) and a
*numeric* pass. Both passes depend only on the **patterns** of A, B and the
mask — not on the stored values — so a plan computed once stays valid for
every later product whose operand patterns are unchanged. That invariance is
what :mod:`repro.service` amortizes: iterative algorithms (k-truss, MCL) and
serving workloads repeatedly multiply under the same or slowly-changing
structure, and a cached :class:`SymbolicPlan` lets every warm call skip both
``registry.auto_select`` and the symbolic pass.

:func:`build_plan` is the single place plans are created; consumers hand the
result back to :func:`repro.core.api.masked_spgemm` via its ``plan=``
argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AlgorithmError
from ..mask import Mask
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_multiplicable
from . import registry


@dataclass(frozen=True)
class SymbolicPlan:
    """Everything the numeric pass needs that pure pattern analysis provides.

    Attributes
    ----------
    algorithm : str
        Resolved kernel key (never ``"auto"`` — resolution happened at plan
        time, so replaying the plan skips the density heuristic).
    phases : int
        The phase mode the plan was built for. ``row_sizes`` is only
        populated for two-phase plans.
    row_sizes : np.ndarray | None
        Exact per-output-row nnz from the symbolic pass (paper §6), or None
        for one-phase plans (nothing symbolic to reuse, but algorithm
        resolution still amortizes).
    shape : (nrows, ncols) of the output the plan describes.
    """

    algorithm: str
    phases: int
    shape: tuple[int, int]
    row_sizes: np.ndarray | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int | None:
        """Planned output nnz (two-phase plans only)."""
        return None if self.row_sizes is None else int(self.row_sizes.sum())

    def check_output_shape(self, out_shape) -> None:
        if tuple(out_shape) != self.shape:
            raise AlgorithmError(
                f"plan was built for output shape {self.shape}, "
                f"got {tuple(out_shape)}"
            )

    # -- persistence ---------------------------------------------------- #
    def to_record(self) -> tuple[dict, np.ndarray | None]:
        """Split the plan into JSON-able metadata + its (optional) row-size
        array — the two halves an ``.npz``-backed store can persist. The
        inverse is :meth:`from_record`; :class:`repro.service.PlanStore`
        is the consumer."""
        meta = {"algorithm": self.algorithm, "phases": int(self.phases),
                "shape": [int(self.shape[0]), int(self.shape[1])]}
        return meta, self.row_sizes

    @classmethod
    def from_record(cls, meta: dict,
                    row_sizes: np.ndarray | None) -> "SymbolicPlan":
        """Rebuild a plan persisted via :meth:`to_record`, re-validating the
        invariants serialization cannot enforce (a 2P plan must carry row
        sizes matching its output row count)."""
        phases = int(meta["phases"])
        shape = (int(meta["shape"][0]), int(meta["shape"][1]))
        if phases == 2:
            if row_sizes is None or len(row_sizes) != shape[0]:
                raise AlgorithmError(
                    f"persisted two-phase plan for shape {shape} carries "
                    f"{'no' if row_sizes is None else len(row_sizes)} row "
                    f"sizes; expected {shape[0]}"
                )
            row_sizes = np.ascontiguousarray(row_sizes, dtype=INDEX_DTYPE)
        else:
            row_sizes = None
        return cls(algorithm=str(meta["algorithm"]), phases=phases,
                   shape=shape, row_sizes=row_sizes)


def build_plan(A: CSRMatrix, B: CSRMatrix, mask: Mask, *,
               algorithm: str = "auto", phases: int = 1,
               semiring=None) -> SymbolicPlan:
    """Resolve the algorithm and (for two-phase) run the symbolic pass.

    ``semiring`` only informs ``auto`` resolution (None means
    ``PLUS_TIMES``): the compiled tier's op table decides whether the
    native-first pick applies. The symbolic pass itself is pattern-only.

    The returned plan is valid for any (A', B', mask') whose *patterns*
    equal those of (A, B, mask) — callers are responsible for that keying;
    :class:`repro.service.PlanCache` does it with pattern fingerprints.
    """
    if phases not in (1, 2):
        raise AlgorithmError(f"phases must be 1 or 2, got {phases!r}")
    out_shape = check_multiplicable(A.shape, B.shape)
    mask.check_output_shape(out_shape)
    algorithm = algorithm.lower()
    if algorithm == "auto":
        algorithm = registry.auto_select(A, B, mask, semiring=semiring)
    spec = registry.get_spec(algorithm)  # validates kernel name
    row_sizes = None
    if phases == 2:
        rows = np.arange(out_shape[0], dtype=INDEX_DTYPE)
        row_sizes = spec.symbolic(A, B, mask, rows)
    return SymbolicPlan(algorithm=algorithm, phases=phases,
                        shape=out_shape, row_sizes=row_sizes)


def splice_plan(plan: SymbolicPlan, A: CSRMatrix, B: CSRMatrix, mask: Mask,
                dirty_rows: np.ndarray,
                sizes: np.ndarray | None = None) -> SymbolicPlan:
    """Incrementally revalidate a plan after an operand-pattern delta.

    ``dirty_rows`` is the exact set of output rows whose symbolic sizes may
    have changed (sorted unique; the delta machinery computes it — see
    :meth:`repro.service.Engine.apply_delta`). Fresh sizes for *only those
    rows*, against the post-delta operands, are spliced into a copy of the
    plan's row-size array — a k-truss iteration that drops 2% of edges
    re-plans 2% of rows instead of all of them. The plan's resolved
    algorithm is kept as-is: every registered kernel computes the same
    masked product, so replaying the original resolution stays
    bit-identical even where the density heuristic would now pick
    differently.

    The fresh sizes come from one of two places. By default the plan's
    kernel runs its symbolic pass over the dirty rows. When ``sizes`` is
    given, it holds the dirty rows' output sizes from a numeric pass the
    caller already ran over exactly ``dirty_rows`` with the plan's kernel
    (the delta path's result patch). By the direct-write contract a
    kernel's numeric row sizes *are* its symbolic sizes, so they are
    spliced in as they are and no symbolic pass runs. A later direct-write
    replay still checks them against the offsets the kernel computes.

    An empty dirty set returns ``plan`` itself (object identity — nothing
    ran); one-phase plans carry no symbolic state, so only their algorithm
    resolution is reused (same object, still valid for the new key).
    """
    out_shape = check_multiplicable(A.shape, B.shape)
    mask.check_output_shape(out_shape)
    plan.check_output_shape(out_shape)  # deltas preserve operand shapes
    if plan.row_sizes is None:
        return plan
    dirty = np.asarray(dirty_rows, dtype=INDEX_DTYPE)
    if dirty.size == 0:
        return plan
    if dirty.min() < 0 or dirty.max() >= plan.shape[0]:
        raise AlgorithmError(
            f"dirty rows out of range for plan shape {plan.shape}")
    if sizes is None:
        fresh = registry.get_spec(plan.algorithm).symbolic(A, B, mask, dirty)
    else:
        fresh = np.asarray(sizes)
        if fresh.shape != dirty.shape:
            raise AlgorithmError(
                f"{fresh.size} spliced row sizes for {dirty.size} dirty rows")
    row_sizes = plan.row_sizes.copy()
    row_sizes[dirty] = fresh
    return SymbolicPlan(algorithm=plan.algorithm, phases=plan.phases,
                        shape=plan.shape, row_sizes=row_sizes)
