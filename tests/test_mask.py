"""Mask abstraction tests."""

import numpy as np
import pytest

from repro.errors import MaskError
from repro.mask import Mask
from repro.sparse import csr_random


def test_from_matrix_copies_pattern(rng):
    m = csr_random(10, 12, density=0.3, rng=rng)
    mk = Mask.from_matrix(m)
    assert mk.nnz == m.nnz
    assert mk.shape == m.shape
    assert not mk.complemented
    # mutation of the source must not leak into the mask
    m.indices[0] = (m.indices[0] + 1) % 12 if m.nnz else 0
    mk2 = Mask.from_matrix(csr_random(10, 12, density=0.3, rng=rng))
    assert mk2.shape == (10, 12)


def test_from_matrix_unchecked_shares_the_pattern(rng):
    """``check=False`` wraps a canonical pattern in place: the same arrays,
    either polarity, and no validation (the constructor still checks)."""
    from repro.errors import FormatError
    from repro.sparse import CSRMatrix

    m = csr_random(10, 12, density=0.3, rng=rng)
    for complemented in (False, True):
        mk = Mask.from_matrix(m, complemented=complemented, check=False)
        assert mk.indptr is m.indptr and mk.indices is m.indices
        assert mk.complemented is complemented and mk.bitmap is None
        assert mk.shape == m.shape
    unsorted = CSRMatrix([0, 2], [1, 0], [1.0, 1.0], (1, 2), check=False)
    assert Mask.from_matrix(unsorted, check=False).nnz == 2
    with pytest.raises(FormatError):
        Mask.from_matrix(unsorted)


def test_explicit_zeros_count_as_stored():
    from repro.sparse import CSRMatrix

    m = CSRMatrix([0, 2], [0, 1], [0.0, 2.0], (1, 2))
    mk = Mask.from_matrix(m)
    assert mk.nnz == 2  # structural semantics


def test_row_access(rng):
    m = csr_random(6, 9, density=0.4, rng=rng)
    mk = Mask.from_matrix(m)
    for i in range(6):
        cols, _ = m.row(i)
        assert np.array_equal(mk.row(i), cols)
    assert np.array_equal(mk.row_nnz(), m.row_nnz())


def test_complement_flag_and_flip(rng):
    m = csr_random(5, 5, density=0.3, rng=rng)
    mk = Mask.from_matrix(m, complemented=True)
    assert mk.complemented
    flipped = mk.complement()
    assert not flipped.complemented
    assert np.array_equal(flipped.indices, mk.indices)


def test_full_mask_allows_everything():
    mk = Mask.full((4, 7))
    assert mk.complemented
    assert mk.nnz == 0
    assert mk.shape == (4, 7)


def test_to_matrix_is_all_ones(rng):
    m = csr_random(6, 6, density=0.3, rng=rng)
    mat = Mask.from_matrix(m).to_matrix()
    assert mat.same_pattern(m)
    assert np.all(mat.data == 1.0)


def test_check_output_shape():
    mk = Mask.full((3, 4))
    mk.check_output_shape((3, 4))
    with pytest.raises(MaskError):
        mk.check_output_shape((4, 3))


def test_repr_mentions_complement(rng):
    m = csr_random(3, 3, density=0.5, rng=rng)
    assert "¬" in repr(Mask.from_matrix(m, complemented=True))
