"""Properties of the integer kernel on small integer matrices, checked
against the Fraction Gauss-Jordan rank in ``helpers``."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import SubtorusBasis
from stabred.intlinalg import integer_kernel

from helpers import rational_rank

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def matrices(draw, max_rows=4):
    width = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    return width, draw(st.lists(row, max_size=max_rows))


@SETTINGS
@given(matrices())
def test_kernel_vectors_are_orthogonal_to_every_row(matrix):
    width, rows = matrix
    for h in integer_kernel(rows, width):
        assert len(h) == width
        assert all(sum(a * b for a, b in zip(row, h)) == 0 for row in rows)


@SETTINGS
@given(matrices())
def test_kernel_has_the_complementary_rank(matrix):
    width, rows = matrix
    kernel = integer_kernel(rows, width)
    assert len(kernel) == width - rational_rank(rows)
    assert rational_rank(kernel) == len(kernel)


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_kernel_ignores_row_order_and_repeats(matrix, rng):
    width, rows = matrix
    shuffled = rows + [rng.choice(rows) for _ in range(2)] if rows else []
    rng.shuffle(shuffled)
    assert integer_kernel(shuffled, width) == integer_kernel(rows, width)


@SETTINGS
@given(matrices(max_rows=5))
def test_subtorus_basis_accepts_exactly_the_independent_lists(matrix):
    width, vectors = matrix
    if rational_rank(vectors) == len(vectors):
        assert SubtorusBasis(width, vectors).rank == len(vectors)
    else:
        with pytest.raises(ValueError, match="linearly dependent"):
            SubtorusBasis(width, vectors)
