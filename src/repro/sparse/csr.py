"""CSR (Compressed Sparse Row) — the library's primary sparse format.

The paper's algorithms are row-by-row (Gustavson form), so every kernel
consumes CSR operands: ``indptr`` (row pointers, length nrows+1), ``indices``
(column ids of nonzeros) and ``data`` (values), exactly the three arrays the
paper describes in §2.1.

Invariants maintained by all constructors in this library:

* ``indptr`` is non-decreasing with ``indptr[0] == 0`` and
  ``indptr[-1] == nnz``;
* within each row, column indices are strictly increasing (sorted, no
  duplicates). Sortedness matters: MCA and Heap *require* it (paper §5.4,
  §5.5), and the mask-stable output ordering of MSA relies on it.

Explicit zeros are allowed (structural pattern ≠ numeric value), mirroring
GraphBLAS semantics where a stored zero participates in masks.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..validation import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    as_index_array,
    as_value_array,
    check_indices_in_range,
    check_indptr,
    check_shape,
    rows_sorted_unique,
)


class CSRMatrix:
    """Compressed sparse row matrix backed by three numpy arrays.

    Parameters
    ----------
    indptr, indices, data : array-like
        The standard CSR triple.
    shape : (nrows, ncols)
    check : bool, default True
        Validate format invariants. Kernels constructing outputs they know to
        be valid pass ``check=False`` to skip the O(nnz) verification.
    """

    # __weakref__: repro.native.kernels keeps a matrix's transpose in a
    # memo whose entries go when the matrix does
    __slots__ = ("indptr", "indices", "data", "shape", "__weakref__")

    def __init__(self, indptr, indices, data, shape, *, check: bool = True):
        self.shape = check_shape(shape)
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_value_array(data, "data", dtype=np.asarray(data).dtype)
        if check:
            check_indptr(self.indptr, self.shape[0], self.indices.size)
            if self.indices.size != self.data.size:
                raise FormatError(
                    f"indices/data length mismatch: {self.indices.size} vs {self.data.size}"
                )
            check_indices_in_range(self.indices, self.shape[1], "column indices")
            if not rows_sorted_unique(self.indptr, self.indices):
                raise FormatError(
                    "column indices must be strictly increasing within each row; "
                    "build via COOMatrix.canonicalize() / coo_to_csr()"
                )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def dtype(self):
        return self.data.dtype

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts, ``nnz(A_i*)`` for all i (length nrows)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (column indices, values) of row ``i`` — zero copy."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape,
            check=False,
        )

    def astype(self, dtype) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.astype(dtype),
            self.shape, check=False,
        )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_coo(self):
        from .convert import csr_to_coo

        return csr_to_coo(self)

    def to_csc(self):
        from .convert import csr_to_csc

        return csr_to_csc(self)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    # ------------------------------------------------------------------ #
    # structural operations (delegating to ops.py for the heavy lifting)
    # ------------------------------------------------------------------ #
    def transpose(self) -> "CSRMatrix":
        """Return A^T as a new, canonical CSR matrix (O(nnz log nnz))."""
        from .ops import transpose_csr

        return transpose_csr(self)

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def pattern(self, value: float = 1.0) -> "CSRMatrix":
        """Structural pattern with every stored value replaced by ``value``."""
        return CSRMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            np.full(self.nnz, value, dtype=VALUE_DTYPE),
            self.shape,
            check=False,
        )

    def tril(self, k: int = -1) -> "CSRMatrix":
        from .ops import tril

        return tril(self, k)

    def triu(self, k: int = 1) -> "CSRMatrix":
        from .ops import triu

        return triu(self, k)

    def diagonal(self) -> np.ndarray:
        from .ops import diagonal

        return diagonal(self)

    def prune(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|value| <= tol``."""
        from .ops import prune

        return prune(self, tol)

    def sum(self) -> float:
        """Sum of all stored values (the GraphBLAS reduce-to-scalar with +)."""
        return float(self.data.sum())

    # ------------------------------------------------------------------ #
    # comparison helpers (used heavily by tests)
    # ------------------------------------------------------------------ #
    def same_pattern(self, other: "CSRMatrix") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def equals(self, other: "CSRMatrix", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural and numeric equality (same pattern, close values)."""
        return self.same_pattern(other) and bool(
            np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )

    def allclose_values(self, other: "CSRMatrix", *, rtol: float = 1e-9,
                        atol: float = 1e-11) -> bool:
        """Numeric equality ignoring pattern differences caused by explicit
        zeros: compares the dense renderings. Intended for small test inputs.
        """
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol))

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, shape, dtype=VALUE_DTYPE) -> "CSRMatrix":
        m, _ = check_shape(shape)
        return cls(
            np.zeros(m + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=dtype),
            shape,
            check=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRMatrix shape={self.shape} nnz={self.nnz} dtype={self.data.dtype}>"
