import random
from fractions import Fraction

import pytest

from stabred import ParseError, UnknownVariable, parse_polynomial
from stabred.poly import Polynomial

from test_poly import random_poly

V = ("x", "y")


def test_basic_grammar():
    assert parse_polynomial("x^2*y - 2*x*y^2", V).terms == {
        (2, 1): Fraction(1),
        (1, 2): Fraction(-2),
    }
    assert parse_polynomial("0", V).is_zero()
    assert parse_polynomial("  - 3 ", V).coefficient((0, 0)) == Fraction(-3)
    assert parse_polynomial("3/2*x", V).terms == {(1, 0): Fraction(3, 2)}


def test_parentheses_and_unary_minus():
    p = parse_polynomial("-(x + y)^2", V)
    assert p.to_string() == "-x^2 - 2*x*y - y^2"
    assert parse_polynomial("-(-x)", V).to_string() == "x"
    with pytest.raises(ParseError):
        parse_polynomial("--x", V)
    assert parse_polynomial("(x - y)*(x + y)", V).to_string() == "x^2 - y^2"


def test_exponent_binds_tighter_than_product():
    assert parse_polynomial("2*x^3", V).terms == {(3, 0): Fraction(2)}
    assert parse_polynomial("(2*x)^3", V).terms == {(3, 0): Fraction(8)}


def test_error_positions():
    with pytest.raises(ParseError, match="column 4"):
        parse_polynomial("x +", V)
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse_polynomial("(x", V)
    with pytest.raises(ParseError, match="integer exponent"):
        parse_polynomial("x^-1", V)
    with pytest.raises(ParseError, match="unexpected 'x'"):
        parse_polynomial("2x", V)
    with pytest.raises(ParseError):
        parse_polynomial("x**2", V)


@pytest.mark.parametrize(
    "text, column", [("x^\u00b2", 3), ("x^\u0663", 3), ("\u00b2*x", 1), ("x + y^1\u0663", 8)]
)
def test_only_ascii_digits_are_numbers(text, column):
    # superscript two and Arabic-Indic three are Unicode digits, not [0-9]
    with pytest.raises(ParseError, match=f"line 1, column {column}: unexpected character") as caught:
        parse_polynomial(text, V)
    assert (caught.value.line, caught.value.column) == (1, column)


@pytest.mark.parametrize(
    "text, names, column",
    [("\u00e9*x", ("\u00e9", "x"), 1), ("x\u0663 + x", ("x\u0663", "x"), 2), ("x*\u212a", ("x", "\u212a"), 3)],
)
def test_only_ascii_names_are_variables(text, names, column):
    # e-acute, Arabic-Indic three and the Kelvin sign pass isalpha/isalnum
    # but not [A-Za-z_][A-Za-z0-9_]*
    with pytest.raises(ParseError, match=f"line 1, column {column}: unexpected character"):
        parse_polynomial(text, names)


def test_unknown_variable():
    with pytest.raises(UnknownVariable, match="'q'"):
        parse_polynomial("q + 1", V)


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        p = random_poly(rng)
        assert parse_polynomial(p.to_string(), V) == p
    for _ in range(40):
        p = random_poly(rng, variables=("a", "b", "c"), max_degree=4)
        assert parse_polynomial(p.to_string(), ("a", "b", "c")) == p


def test_parse_respects_declared_variable_tuple():
    p = parse_polynomial("y", ("y",))
    assert p.variables == ("y",)
    assert p.terms == {(1,): Fraction(1)}
