"""Structural mask for ``C = M ⊙ (A·B)`` and ``C = ¬M ⊙ (A·B)``.

Per the paper (§2): "we only utilize the pattern of the mask …, hence the
values in the mask are not evaluated and the type of the mask elements does
not matter." A :class:`Mask` therefore keeps only the *pattern* of the
masking matrix plus a ``complemented`` flag, in one of two forms:

* **CSR** (paper §2.1: "We use CSR format for storing the mask"): the
  ``indptr`` + ``indices`` arrays, sorted within each row, which MCA and
  Heap depend on. Every kernel, baseline and the reference tier read this
  form.
* **bitmap** (GraphBLAS's bitmap format): ``bitmap``, a C-contiguous 2-D
  ``bool`` array of the output's shape, True where the pattern has an
  entry. It suits a mask that is dense and rebuilt every step, such as a
  traversal's visited set: building it costs no sort and no CSR
  validation.

The form is the mask's own business. A bitmap mask still answers every
CSR read: its ``indptr`` and ``indices`` are derived from the bitmap on
first use and cached, so every kernel, baseline, the reference tier and
any other CSR reader take either form unchanged. Only the compiled loops
read a complemented bitmap itself, in place: the complemented MSA push
(``msa-native``), instead of marking the banned columns in its scratch
state and clearing them after, and the pull (``msa-pull``), which scans a
row's zero bytes for its candidate columns. On those paths the CSR view
is never built.
"""

from __future__ import annotations

import numpy as np

from ..errors import MaskError
from ..sparse.csr import CSRMatrix
from ..validation import INDEX_DTYPE, check_shape


class Mask:
    """Structural mask over an (nrows x ncols) output space.

    Parameters
    ----------
    indptr, indices : CSR pattern arrays (values are irrelevant and not kept)
    shape : (nrows, ncols)
    complemented : bool
        When True the mask selects entries *not* present in the pattern
        (``C = ¬M ⊙ (A·B)``), the form graph traversals use to avoid
        re-visiting vertices.

    :meth:`from_bitmap` builds the bitmap form instead, whose ``bitmap``
    holds the pattern and whose ``indptr`` and ``indices`` are built from
    it on first read. ``bitmap`` is None on a CSR mask.
    """

    # _csr: the (indptr, indices) pair, one tuple so that concurrent first
    # reads of a bitmap mask's CSR view never see half of it
    __slots__ = ("_csr", "bitmap", "shape", "complemented")

    def __init__(self, indptr, indices, shape, *, complemented: bool = False):
        self.shape = check_shape(shape)
        # reuse CSRMatrix validation by building a throwaway pattern matrix
        pat = CSRMatrix(indptr, indices, np.ones(len(indices)), self.shape)
        self._csr = (pat.indptr, pat.indices)
        self.bitmap = None
        self.complemented = bool(complemented)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrix(cls, m: CSRMatrix, *, complemented: bool = False,
                    check: bool = True) -> "Mask":
        """Build a mask from the stored pattern of a CSR matrix.

        Note: *stored* pattern — explicit zeros count as present, matching
        GraphBLAS structural-mask semantics.

        ``check=False`` shares ``m``'s ``indptr`` and ``indices`` instead of
        copying and re-validating them, as :class:`CSRMatrix` does for
        outputs known to be canonical: for a pattern a kernel just emitted
        and nobody changes afterwards.
        """
        if check:
            return cls(m.indptr.copy(), m.indices.copy(), m.shape,
                       complemented=complemented)
        return cls._of_csr((m.indptr, m.indices), m.shape, complemented)

    @classmethod
    def _of_csr(cls, csr, shape, complemented) -> "Mask":
        """A CSR mask over trusted (indptr, indices): no copy, no check."""
        mask = cls.__new__(cls)
        mask.shape = shape
        mask._csr = csr
        mask.bitmap = None
        mask.complemented = bool(complemented)
        return mask

    @classmethod
    def from_bitmap(cls, bitmap: np.ndarray, shape=None, *,
                    complemented: bool = False) -> "Mask":
        """Wrap a C-contiguous 2-D ``bool`` array as a bitmap mask.

        The array is kept, not copied: a caller that goes on changing it
        must hand in a copy. Validation is O(1) — dtype, ndim, contiguity
        and, when ``shape`` is given, the shape.
        """
        if not isinstance(bitmap, np.ndarray) or bitmap.dtype != np.bool_:
            raise MaskError("a bitmap mask must be a numpy bool array")
        if bitmap.ndim != 2:
            raise MaskError(f"a bitmap mask must be 2-D, got {bitmap.ndim}-D")
        if not bitmap.flags.c_contiguous:
            raise MaskError("a bitmap mask must be C-contiguous")
        if shape is not None and check_shape(shape) != bitmap.shape:
            raise MaskError(f"bitmap shape {bitmap.shape} does not match "
                            f"mask shape {tuple(shape)}")
        mask = cls.__new__(cls)
        mask.shape = bitmap.shape
        mask._csr = None
        mask.bitmap = bitmap
        mask.complemented = bool(complemented)
        return mask

    @classmethod
    def full(cls, shape) -> "Mask":
        """A no-op mask (complement of the empty pattern): every output entry
        is allowed. Lets plain SpGEMM be expressed as Masked SpGEMM."""
        nrows, _ = check_shape(shape)
        return cls(np.zeros(nrows + 1, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=INDEX_DTYPE), shape, complemented=True)

    def to_csr(self) -> "Mask":
        """This mask in CSR form: ``self`` when it already is, else a CSR
        mask over this bitmap's CSR view, with the same polarity."""
        if self.bitmap is None:
            return self
        return Mask._of_csr(self._csr_view(), self.shape, self.complemented)

    def _csr_view(self):
        csr = self._csr
        if csr is None:
            indptr = np.zeros(self.nrows + 1, dtype=INDEX_DTYPE)
            np.cumsum(self.row_nnz(), out=indptr[1:])
            # row-major nonzero: rows in order, columns sorted within a row
            indices = np.nonzero(self.bitmap)[1].astype(INDEX_DTYPE,
                                                        copy=False)
            csr = self._csr = (indptr, indices)
        return csr

    # ------------------------------------------------------------------ #
    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers of the pattern (int64)."""
        return self._csr_view()[0]

    @property
    def indices(self) -> np.ndarray:
        """CSR column ids of the pattern (int64), sorted within each row."""
        return self._csr_view()[1]

    @property
    def nnz(self) -> int:
        """Stored pattern entries — nnz(M) in the paper's cost formulas."""
        if self.bitmap is not None:
            return int(np.count_nonzero(self.bitmap))
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes: the CSR arrays (a bitmap mask's view included,
        which this builds) plus the bitmap, if any."""
        n = self.indptr.nbytes + self.indices.nbytes
        return n if self.bitmap is None else n + self.bitmap.nbytes

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Sorted column ids allowed (or disallowed, if complemented) in row i."""
        return self.indices[self.indptr[i]: self.indptr[i + 1]]

    def row_nnz(self, rows=None) -> np.ndarray:
        """Pattern entries per row, of every row or of ``rows`` only. A
        bitmap mask counts its bits without building the CSR view."""
        if self.bitmap is not None:
            bits = self.bitmap if rows is None else self.bitmap[rows]
            # pack 8 columns a byte and popcount: 38 against 93 us for
            # count_nonzero along an axis on a 64 x 2048 bitmap (numpy 2.4)
            return np.bitwise_count(np.packbits(bits, axis=1)).sum(
                axis=1, dtype=INDEX_DTYPE)
        if rows is None:
            return np.diff(self.indptr)
        return self.indptr[rows + 1] - self.indptr[rows]

    def complement(self) -> "Mask":
        """The same pattern, in the same form, with the complemented flag
        flipped."""
        if self.bitmap is not None:
            return Mask.from_bitmap(self.bitmap.copy(),
                                    complemented=not self.complemented)
        return Mask(self.indptr.copy(), self.indices.copy(), self.shape,
                    complemented=not self.complemented)

    def to_matrix(self) -> CSRMatrix:
        """Materialize the pattern as an all-ones CSR matrix."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         np.ones(self.nnz), self.shape, check=False)

    def check_output_shape(self, out_shape) -> None:
        if tuple(out_shape) != self.shape:
            raise MaskError(
                f"mask shape {self.shape} does not match output shape {tuple(out_shape)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = "¬" if self.complemented else ""
        form = " bitmap" if self.bitmap is not None else ""
        return f"<Mask {c}M{form} shape={self.shape} nnz={self.nnz}>"
