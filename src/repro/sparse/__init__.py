"""Sparse-matrix substrate: storage formats and structural operations.

The paper (§2.1) works almost exclusively with CSR — "We use the CSR format
in most cases, with CSC only being used in a single case to improve
performance of the inner product" — so :class:`~repro.sparse.csr.CSRMatrix`
is the primary citizen here, with :class:`~repro.sparse.csc.CSCMatrix` kept
for the pull-based (Inner) algorithm and :class:`~repro.sparse.coo.COOMatrix`
as the interchange/builder format.

Everything is implemented from scratch on top of numpy arrays (lexsort,
bincount, cumsum); ``scipy.sparse`` appears only in the optional test-oracle
bridge in :mod:`repro.sparse.convert`.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .construct import (
    csr_eye,
    csr_diag,
    csr_from_dense,
    csr_from_edges,
    csr_random,
)
from .convert import coo_to_csr, csr_to_coo, csr_to_csc, csc_to_csr, from_scipy, to_scipy
from . import ops
from .ops import matrix_fingerprint, pattern_fingerprint, value_fingerprint
from .io_mm import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "csr_eye",
    "csr_diag",
    "csr_from_dense",
    "csr_from_edges",
    "csr_random",
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "from_scipy",
    "to_scipy",
    "ops",
    "matrix_fingerprint",
    "pattern_fingerprint",
    "value_fingerprint",
    "read_matrix_market",
    "write_matrix_market",
]
