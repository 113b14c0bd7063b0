"""The delta batch type and its application semantics.

A :class:`DeltaBatch` is a set of edge mutations applied atomically to one
CSR matrix:

* **delete** — ``(row, col)`` coordinates to remove. Deleting an unstored
  coordinate is a no-op (idempotent deletes are what streaming feeds
  produce: the same edge retires from several event sources).
* **insert** — ``(row, col, value)`` triples to add. Inserting at a stored
  coordinate overwrites its value without a pattern change.
* **update** — ``(row, col, value)`` triples rewriting stored values.
  Strict: updating an unstored coordinate raises (an update is a claim the
  edge exists; silently inserting would mask feed corruption).

Within one batch, deletes apply first, then inserts, then updates; within
each list, the *last* occurrence of a duplicated coordinate wins (event
order). The important derived quantity is the **pattern-dirty row set**:
rows whose sparsity structure changed. Delete-then-reinsert of a stored
edge in one batch therefore leaves its row *clean*: the pattern round-trips,
so the pattern fingerprint carries over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..errors import ReproError
from ..sparse.csr import CSRMatrix
from ..sparse.ops import apply_coordinate_delta, coord_keys
from ..validation import INDEX_DTYPE, VALUE_DTYPE


class DeltaError(ReproError):
    """Malformed delta batch (out-of-range coordinates, bad shapes, strict
    update of an unstored edge, …)."""


def _as_coords(edges: Sequence, *, with_values: bool,
               what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize ``[(r, c[, v]), …]`` to aligned rows/cols/values arrays."""
    width = 3 if with_values else 2
    try:
        # fast path: an (n, width) ndarray (e.g. np.column_stack of edge
        # arrays from a streaming feed) skips the Python-tuple round-trip
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else
                         list(edges), dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise DeltaError(f"malformed {what} edge list: {exc}") from None
    if arr.size == 0:
        return (np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE))
    if arr.ndim != 2 or arr.shape[1] != width:
        raise DeltaError(
            f"{what} edges must be (row, col{', value' if with_values else ''})"
            f" tuples, got array of shape {arr.shape}")
    rows = arr[:, 0].astype(INDEX_DTYPE)
    cols = arr[:, 1].astype(INDEX_DTYPE)
    if not (np.all(arr[:, 0] == rows) and np.all(arr[:, 1] == cols)):
        raise DeltaError(f"{what} coordinates must be integers")
    vals = (arr[:, 2].astype(VALUE_DTYPE) if with_values
            else np.empty(0, dtype=VALUE_DTYPE))
    return rows, cols, vals


def _dedup_last(keys: np.ndarray,
                vals: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted unique keys, keeping the *last* occurrence's value per key."""
    if keys.size == 0:
        return keys, vals
    # stable sort keeps event order within equal keys; the last index of
    # each run is the winning occurrence
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    last = np.append(skeys[1:] != skeys[:-1], True)
    if vals is None:
        return skeys[last], None
    return skeys[last], vals[order][last]


@dataclass
class DeltaBatch:
    """One atomic batch of edge mutations (see module docstring).

    Construct from edge lists (``insert=[(r, c, v), …]``,
    ``delete=[(r, c), …]``, ``update=[(r, c, v), …]``) or from the JSON wire
    form via :meth:`from_dict`.
    """

    insert: Sequence = field(default_factory=list)
    delete: Sequence = field(default_factory=list)
    update: Sequence = field(default_factory=list)

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "DeltaBatch":
        unknown = set(spec) - {"insert", "delete", "update"}
        if unknown:
            raise DeltaError(f"unknown delta fields: {sorted(unknown)}")
        return cls(insert=spec.get("insert", []), delete=spec.get("delete", []),
                   update=spec.get("update", []))

    def __len__(self) -> int:
        return len(self.insert) + len(self.delete) + len(self.update)

    # ------------------------------------------------------------------ #
    def apply(self, m: CSRMatrix) -> "DeltaResult":
        """Apply this batch to ``m`` and classify the outcome.

        Returns a :class:`DeltaResult`; ``m`` itself is never mutated (the
        result's matrix shares the pattern arrays for value-only batches and
        is the *same object* for pure no-ops).
        """
        ins_r, ins_c, ins_v = _as_coords(self.insert, with_values=True,
                                         what="insert")
        del_r, del_c, _ = _as_coords(self.delete, with_values=False,
                                     what="delete")
        upd_r, upd_c, upd_v = _as_coords(self.update, with_values=True,
                                         what="update")
        nrows, ncols = m.shape
        for what, rows, cols in (("insert", ins_r, ins_c),
                                 ("delete", del_r, del_c),
                                 ("update", upd_r, upd_c)):
            if rows.size and (rows.min() < 0 or rows.max() >= nrows
                              or cols.min() < 0 or cols.max() >= ncols):
                raise DeltaError(
                    f"{what} coordinates out of range for shape {m.shape}")
        ins_k, ins_v = _dedup_last(coord_keys(ins_r, ins_c, ncols), ins_v)
        del_k, _ = _dedup_last(coord_keys(del_r, del_c, ncols), None)
        upd_k, upd_v = _dedup_last(coord_keys(upd_r, upd_c, ncols), upd_v)
        try:
            matrix, dirty_rows, value_touched = apply_coordinate_delta(
                m, del_k, ins_k, ins_v, upd_k, upd_v)
        except ValueError as exc:
            raise DeltaError(str(exc)) from None
        pattern_changed = dirty_rows.size > 0
        if pattern_changed:
            kind = "mixed" if value_touched else "pattern"
        else:
            kind = "value" if value_touched else "noop"
        return DeltaResult(matrix=matrix, dirty_rows=dirty_rows, kind=kind)


@dataclass
class DeltaResult:
    """Outcome of :meth:`DeltaBatch.apply` on one matrix."""

    matrix: CSRMatrix
    #: sorted unique rows whose *pattern* changed (empty for value/noop)
    dirty_rows: np.ndarray
    #: ``"noop"`` | ``"value"`` | ``"pattern"`` | ``"mixed"``
    kind: str

    @property
    def pattern_changed(self) -> bool:
        return self.dirty_rows.size > 0


@dataclass
class DeltaOutcome:
    """Service-level summary of one applied delta
    (:meth:`repro.service.Engine.apply_delta`)."""

    key: str
    kind: str
    #: rows of the mutated matrix whose pattern changed
    dirty_rows: int = 0
    #: dirty_rows / nrows of the mutated matrix (0.0 for value-only)
    dirty_fraction: float = 0.0
    #: always 0; kept for perfbench/tracing.py, its only reader
    plans_spliced: int = 0
    #: result-cache entries invalidated by fingerprint scan
    results_invalidated: int = 0
    #: always 0; kept for perfbench/tracing.py, its only reader
    results_patched: int = 0
    pattern_fingerprint: str = ""
    value_fingerprint: str = ""
    seconds: float = 0.0
