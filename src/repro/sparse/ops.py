"""Structural and element-wise operations on CSR matrices.

These are the GraphBLAS-flavoured helper operations the paper's applications
need around the masked product itself: ``tril`` for triangle counting's
``L``, pattern union for the visited sets of BFS and betweenness centrality,
GraphBLAS element-wise multiply/add/divide, and mask application (the
"multiply then mask" strawman of the paper's Fig. 1 needs ``apply_mask``).

Row-major (row, col) pairs are encoded as scalar keys ``row * ncols + col``
so set operations (union / intersection / difference) become 1-D sorted-array
operations — a standard trick that keeps everything vectorized.

Unions and dedupes sort and drop adjacent duplicates (:func:`_sorted_unique`)
rather than call ``np.unique`` / ``np.union1d``: numpy 2.x answers those
through a hash table, which on random int64 keys measured 18–50x slower
(numpy 2.4.6 on a 2-core Xeon, best of 5: 100k keys 22.9 ms vs 1.3 ms, 1M
keys 780 ms vs 14.8 ms). The output is the same sorted unique array.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..errors import ShapeError
from ..validation import INDEX_DTYPE, VALUE_DTYPE, check_same_shape
from .csr import CSRMatrix


# ---------------------------------------------------------------------- #
# pattern fingerprinting
# ---------------------------------------------------------------------- #
def pattern_fingerprint(indptr: np.ndarray, indices: np.ndarray,
                        shape: tuple[int, int]) -> str:
    """Stable content hash of a CSR *pattern* (indptr + indices + shape).

    Two patterns collide only if blake2b collides: the digest covers the
    shape, the row pointer array and the column ids, each canonicalized to
    little-endian int64 so the result is independent of platform byte order
    and of the (validated-equivalent) input dtype. Values are deliberately
    excluded — a matrix whose numbers change but whose sparsity structure
    does not keeps its fingerprint; the service layer's result-cache key
    pairs it with :func:`value_fingerprint` for the numbers.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(shape, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(indptr, dtype="<i8").tobytes())
    h.update(b"|")  # guard against indptr/indices boundary ambiguity
    h.update(np.ascontiguousarray(indices, dtype="<i8").tobytes())
    return h.hexdigest()


def matrix_fingerprint(m: CSRMatrix) -> str:
    """:func:`pattern_fingerprint` of a matrix's stored pattern."""
    return pattern_fingerprint(m.indptr, m.indices, m.shape)


def value_fingerprint(data: np.ndarray) -> str:
    """Stable content hash of a CSR *value* array.

    The complement of :func:`pattern_fingerprint`: it digests only the stored
    numbers (canonicalized to little-endian float64, the library's value
    dtype), so ``(pattern_fingerprint, value_fingerprint)`` together identify
    a matrix's full content. That pair is the key primitive of
    :class:`repro.service.ResultCache` — two operands with equal pattern and
    value fingerprints produce bit-identical products, so the numeric pass
    itself can be memoized. NaNs hash by their bit patterns, which is the
    right behavior for a cache key (NaN-carrying inputs never alias non-NaN
    ones, and identical bits keep aliasing each other).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(data, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# key encoding
# ---------------------------------------------------------------------- #
def _keys(m: CSRMatrix) -> np.ndarray:
    """Encode stored coordinates as sorted unique int64 scalar keys."""
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    return rows * m.ncols + m.indices


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` for integer keys, by sort and adjacent dedupe."""
    s = np.sort(x, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)`` for integer keys (see :func:`_sorted_unique`)."""
    return _sorted_unique(np.concatenate((a, b), axis=None))


def _from_keys(keys: np.ndarray, values: np.ndarray, shape) -> CSRMatrix:
    """Rebuild a canonical CSR from sorted unique keys + aligned values."""
    nrows, ncols = shape
    rows = keys // ncols
    cols = keys - rows * ncols
    counts = np.bincount(rows, minlength=nrows)
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(indptr, cols, values, shape, check=False)


# ---------------------------------------------------------------------- #
# coordinate deltas (streaming-graph mutations; see repro.delta)
# ---------------------------------------------------------------------- #
def coord_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Encode (row, col) coordinate arrays as the scalar int64 keys the set
    operations above use. Inverse of the row/col split in :func:`_from_keys`."""
    return (np.asarray(rows, dtype=INDEX_DTYPE) * ncols
            + np.asarray(cols, dtype=INDEX_DTYPE))


def apply_coordinate_delta(
    m: CSRMatrix,
    delete_keys: np.ndarray,
    insert_keys: np.ndarray,
    insert_values: np.ndarray,
    update_keys: np.ndarray,
    update_values: np.ndarray,
) -> tuple[CSRMatrix, np.ndarray, bool]:
    """Apply one edge-delta batch to ``m``; the primitive under
    :meth:`repro.delta.DeltaBatch.apply`.

    Key arrays are sorted unique scalar keys (:func:`coord_keys`), values
    aligned with their key arrays. Within the batch, deletes apply first,
    then inserts, then updates:

    * deleting an unstored coordinate is a no-op;
    * inserting at a coordinate the (post-delete) matrix stores overwrites
      its value — no pattern change;
    * updates are strict: every update key must exist after deletes+inserts,
      else ``ValueError`` (an update is a claim the edge is present).

    Returns ``(new_matrix, dirty_rows, value_touched)`` where ``dirty_rows``
    are the rows whose *pattern* changed (sorted unique: the rows of the
    symmetric difference of the stored coordinate sets) and
    ``value_touched`` reports whether any stored value was (re)assigned
    without a pattern change backing it. A value-only batch returns a
    matrix sharing ``indptr``/``indices`` with ``m`` (copy-on-write
    values), which is what lets the service layer carry the pattern
    fingerprint forward unchanged — the "incremental fingerprint" of the
    delta path.
    """
    old_keys = _keys(m)
    keys, vals = old_keys, m.data
    if delete_keys.size:
        keep = ~np.isin(keys, delete_keys, assume_unique=True)
        keys, vals = keys[keep], vals[keep]
    overwrote = False
    if insert_keys.size:
        union = _sorted_union(keys, insert_keys)
        new_vals = np.empty(union.size, dtype=VALUE_DTYPE)
        new_vals[np.searchsorted(union, keys)] = vals
        new_vals[np.searchsorted(union, insert_keys)] = insert_values
        # an insert landing on a coordinate stored in the *old* pattern is a
        # value overwrite (incl. delete-then-reinsert within this batch):
        # no pattern change, but the stored numbers moved
        overwrote = bool(np.isin(insert_keys, old_keys,
                                 assume_unique=True).any())
        keys, vals = union, new_vals
    if update_keys.size:
        pos = np.searchsorted(keys, update_keys)
        ok = ((pos < keys.size)
              & (keys[np.clip(pos, 0, max(keys.size - 1, 0))] == update_keys)
              if keys.size else np.zeros(update_keys.size, dtype=bool))
        if not bool(np.all(ok)):
            missing = update_keys[~ok]
            rows = missing // m.ncols
            cols = missing - rows * m.ncols
            raise ValueError(
                f"delta update targets unstored coordinates: "
                f"{list(zip(rows[:5].tolist(), cols[:5].tolist()))}"
                f"{'…' if missing.size > 5 else ''}"
            )
        if vals is m.data:
            vals = vals.copy()
        vals[pos] = update_values
    changed = np.setxor1d(old_keys, keys, assume_unique=True)
    dirty_rows = _sorted_unique(changed // m.ncols).astype(INDEX_DTYPE, copy=False)
    value_touched = overwrote or bool(update_keys.size)
    if dirty_rows.size == 0:
        if not value_touched:
            # pure no-op: same object, same bits
            return m, dirty_rows, False
        # value-only: share the pattern arrays, swap in the new values
        new = CSRMatrix(m.indptr, m.indices,
                        np.ascontiguousarray(vals, dtype=VALUE_DTYPE),
                        m.shape, check=False)
        return new, dirty_rows, True
    new = _from_keys(keys, np.ascontiguousarray(vals, dtype=VALUE_DTYPE),
                     m.shape)
    return new, dirty_rows, value_touched


# ---------------------------------------------------------------------- #
# structural ops
# ---------------------------------------------------------------------- #
def transpose_csr(m: CSRMatrix) -> CSRMatrix:
    from .convert import _transpose_arrays

    t_indptr, t_indices, t_data = _transpose_arrays(
        m.indptr, m.indices, m.data, m.nrows, m.ncols
    )
    return CSRMatrix(t_indptr, t_indices, t_data, (m.ncols, m.nrows), check=False)


def _select(m: CSRMatrix, keep: np.ndarray) -> CSRMatrix:
    """Filter stored entries by boolean mask ``keep`` (aligned with data)."""
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    counts = np.bincount(rows[keep], minlength=m.nrows)
    indptr = np.zeros(m.nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(indptr, m.indices[keep], m.data[keep], m.shape, check=False)


def tril(m: CSRMatrix, k: int = -1) -> CSRMatrix:
    """Entries on/below the k-th diagonal (default strictly-lower, the ``L``
    of the paper's triangle-counting formulation ``sum(L .* (L·L))``)."""
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    return _select(m, m.indices - rows <= k)


def triu(m: CSRMatrix, k: int = 1) -> CSRMatrix:
    """Entries on/above the k-th diagonal (default strictly-upper)."""
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    return _select(m, m.indices - rows >= k)


def diagonal(m: CSRMatrix) -> np.ndarray:
    """Dense main diagonal (zeros where unstored)."""
    out = np.zeros(min(m.shape), dtype=m.dtype)
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    on_diag = rows == m.indices
    out[rows[on_diag]] = m.data[on_diag]
    return out


def prune(m: CSRMatrix, tol: float = 0.0) -> CSRMatrix:
    """Drop stored entries with ``|value| <= tol``."""
    return _select(m, np.abs(m.data) > tol)


def remove_diagonal(m: CSRMatrix) -> CSRMatrix:
    """Drop stored entries on the main diagonal (self-loops in graph terms)."""
    rows = np.repeat(np.arange(m.nrows, dtype=INDEX_DTYPE), m.row_nnz())
    return _select(m, rows != m.indices)


# ---------------------------------------------------------------------- #
# element-wise ops
# ---------------------------------------------------------------------- #
def ewise_mult(
    a: CSRMatrix, b: CSRMatrix, op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.multiply
) -> CSRMatrix:
    """Element-wise op on the *intersection* of patterns (GraphBLAS eWiseMult)."""
    check_same_shape(a.shape, b.shape, "ewise_mult operands")
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    vals = op(a.data[ia], b.data[ib]).astype(VALUE_DTYPE, copy=False)
    return _from_keys(common, vals, a.shape)


def ewise_add(
    a: CSRMatrix, b: CSRMatrix, op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add
) -> CSRMatrix:
    """Element-wise op on the *union* of patterns (GraphBLAS eWiseAdd):
    where only one operand stores a value, that value passes through."""
    check_same_shape(a.shape, b.shape, "ewise_add operands")
    ka, kb = _keys(a), _keys(b)
    union = _sorted_union(ka, kb)
    pa = np.searchsorted(union, ka)
    pb = np.searchsorted(union, kb)
    vals = np.empty(union.size, dtype=VALUE_DTYPE)
    vals[pa] = a.data
    in_a = np.zeros(union.size, dtype=bool)
    in_a[pa] = True
    both = in_a[pb]
    vb = b.data.astype(VALUE_DTYPE, copy=False)
    vals[pb[~both]] = vb[~both]
    vals[pb[both]] = op(vals[pb[both]], vb[both])
    return _from_keys(union, vals, a.shape)


def ewise_div(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Element-wise a/b on the pattern intersection. Entries of ``a`` with no
    matching ``b`` entry are dropped (consistent with eWiseMult semantics);
    betweenness centrality only divides where the divisor exists."""
    return ewise_mult(a, b, op=lambda x, y: x / y)


def apply_mask(c: CSRMatrix, mask: CSRMatrix, *, complemented: bool = False) -> CSRMatrix:
    """Keep entries of ``c`` whose coordinates lie in (resp. outside, when
    complemented) the stored pattern of ``mask``. This is the *post-hoc*
    masking of the paper's Fig. 1 "plain" path — the thing the masked
    kernels exist to avoid."""
    check_same_shape(c.shape, mask.shape, "matrix and mask")
    kc, km = _keys(c), _keys(mask)
    member = np.isin(kc, km, assume_unique=True)
    keep = ~member if complemented else member
    return _select(c, keep)


def scale_values(m: CSRMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> CSRMatrix:
    """Apply a value-wise function to stored values (GraphBLAS apply)."""
    return CSRMatrix(m.indptr.copy(), m.indices.copy(),
                     fn(m.data).astype(VALUE_DTYPE, copy=False), m.shape, check=False)


def pattern_union(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Union of patterns with all-ones values."""
    check_same_shape(a.shape, b.shape, "pattern_union operands")
    union = _sorted_union(_keys(a), _keys(b))
    return _from_keys(union, np.ones(union.size, dtype=VALUE_DTYPE), a.shape)


def pattern_difference(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Entries of ``a`` whose coordinates are NOT stored in ``b`` (values kept)."""
    check_same_shape(a.shape, b.shape, "pattern_difference operands")
    ka, kb = _keys(a), _keys(b)
    keep = ~np.isin(ka, kb, assume_unique=True)
    return _select(a, keep)


def symmetrize(m: CSRMatrix) -> CSRMatrix:
    """Pattern-symmetrize: return a matrix with entries on union(P, P^T) and
    all-ones values — the standard "make the graph undirected" prep step."""
    if m.nrows != m.ncols:
        raise ShapeError("symmetrize requires a square matrix")
    return pattern_union(m.pattern(), transpose_csr(m).pattern())
