"""Print/parse round trips on random polynomials over names drawn from the
grammar's ``var`` rule, in both monomial orders."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import parse_polynomial
from stabred.parsing import VAR
from stabred.poly import GREVLEX, LEX, Polynomial


@st.composite
def polynomials(draw):
    names = draw(st.lists(st.from_regex(VAR, fullmatch=True), min_size=1, max_size=3, unique=True))
    exponents = st.tuples(*[st.integers(0, 3)] * len(names))
    coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    return Polynomial(names, draw(st.dictionaries(exponents, coefficients, max_size=5)))


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
@settings(max_examples=150, deadline=None)
@given(p=polynomials())
def test_print_parse_round_trip_property(order, p):
    assert parse_polynomial(p.to_string(order), p.variables) == p
