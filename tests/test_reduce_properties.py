"""The generic rank of the degree-2 coefficient matrix against sympy's
rank over the fraction field Q(a, b), an implementation that shares no
code with the fraction-free elimination in ``reduce``.  The matrix is a
``DomainMatrix`` over that field: ``Matrix.rank()`` on the same entries
agrees but takes about 0.2 s a matrix."""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from stabred.poly import Polynomial
from stabred.reduce import _delta2_generic_rank

from test_kernel_oracle import sympy_polys
from test_reduce import _coefficient_scene

RING = ("a", "b")


def entries():
    """Polynomials in a and b of degree at most 2 in each, often zero."""
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(exponents, st.sampled_from((-2, -1, 1, 3)), max_size=3)
    return terms.map(lambda t: Polynomial(RING, t))


@st.composite
def coefficient_matrices(draw):
    """3 or 4 rows, so that elimination divides by a pivot that is not the
    unit; a row is sometimes a combination of two others, so the rank drops."""
    height, width = draw(st.integers(3, 4)), draw(st.integers(2, 4))
    rows = [[draw(entries()) for _ in range(width)] for _ in range(height)]
    if draw(st.booleans()):
        p, q = draw(entries()), draw(entries())
        rows[2] = [p * a + q * b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=150, deadline=None)
@given(coefficient_matrices())
def test_generic_rank_is_the_rank_over_the_fraction_field(rows):
    symbols = sympy.symbols(RING)
    matrix = sympy.Matrix([[p.as_expr() for p in sympy_polys(sympy, row, symbols)] for row in rows])
    field = sympy.QQ.frac_field(*symbols)
    expected = DomainMatrix.from_Matrix(matrix).convert_to(field).rank()
    assert _delta2_generic_rank(_coefficient_scene(rows, RING)) == expected
