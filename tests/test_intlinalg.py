"""Properties of the Hermite form and the integer kernel on small integer
matrices, checked against the Fraction Gauss-Jordan rank in ``helpers``."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import SubtorusBasis
from stabred.intlinalg import hermite_rows, integer_kernel

from helpers import rational_rank

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def matrices(draw, max_rows=4, max_width=4):
    width = draw(st.integers(1, max_width))
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
@given(matrices(max_width=8), st.randoms(use_true_random=False))
def test_kernel_ignores_row_order_and_repeats(matrix, rng):
    width, rows = matrix
    shuffled = rows + [rng.choice(rows) for _ in range(2)] if rows else []
    rng.shuffle(shuffled)
    assert integer_kernel(shuffled, width) == integer_kernel(rows, width)


@SETTINGS
@given(matrices(max_rows=5, max_width=8))
def test_subtorus_basis_accepts_exactly_the_independent_lists(matrix):
    width, vectors = matrix
    if rational_rank(vectors) == len(vectors):
        assert SubtorusBasis(width, vectors).rank == len(vectors)
    else:
        with pytest.raises(ValueError, match="linearly dependent"):
            SubtorusBasis(width, vectors)


def assert_hermite(rows, width):
    """Echelon rows with positive pivots, every entry above a pivot in
    [0, pivot)."""
    pivots = []
    for row in rows:
        assert len(row) == width
        col = next(j for j, a in enumerate(row) if a)
        assert row[col] > 0
        assert not pivots or col > pivots[-1]
        pivots.append(col)
    for i, col in enumerate(pivots):
        assert all(0 <= rows[k][col] < rows[i][col] for k in range(i))


def reduces_to_zero(vector, rows):
    """Whether ``vector`` is an integer combination of the echelon ``rows``."""
    v = list(vector)
    for row in rows:
        col = next(j for j, a in enumerate(row) if a)
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def recombined(vectors, rng):
    """The vectors under a random unimodular matrix: a run of row swaps,
    sign flips and additions of a multiple of one row to another."""
    out = [list(v) for v in vectors]
    for _ in range(3 * len(out)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        move = rng.randrange(3)
        if move == 0:
            out[i], out[j] = out[j], out[i]
        elif move == 1:
            out[i] = [-a for a in out[i]]
        elif i != j:
            k = rng.choice((-2, -1, 1, 2))
            out[i] = [a + k * b for a, b in zip(out[i], out[j])]
    return out


@SETTINGS
@given(matrices(max_rows=5, max_width=8), st.randoms(use_true_random=False))
def test_hermite_rows_is_the_unique_reduced_form_of_the_lattice(matrix, rng):
    width, vectors = matrix
    form = hermite_rows(vectors)
    assert_hermite(form, width)
    assert len(form) == rational_rank(vectors)
    assert all(reduces_to_zero(v, form) for v in vectors)
    if vectors:
        assert hermite_rows(recombined(vectors, rng)) == form


@SETTINGS
@given(matrices(max_width=8))
def test_kernel_is_in_hermite_form(matrix):
    width, rows = matrix
    assert_hermite(integer_kernel(rows, width), width)


def test_kernel_of_one_rank_4_weight_is_reduced_above_every_pivot():
    assert integer_kernel([[-3, 1, 3, 2]], 4) == ((1, 0, 1, 0), (0, 1, 1, -2), (0, 0, 2, -3))


def test_kernel_does_not_depend_on_the_order_of_two_rows():
    rows = [[0, 0, 0, 1, 2], [-1, 1, 1, -1, 0]]
    kernel = ((1, 0, 1, 0, 0), (0, 1, 1, 2, -1), (0, 0, 2, 2, -1))
    assert integer_kernel(rows, 5) == kernel
    assert integer_kernel(rows[::-1], 5) == kernel

