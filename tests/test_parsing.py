import random
import sys
from fractions import Fraction

import pytest

from stabred import ParseError, UnknownVariable, parse_polynomial
from stabred.parsing import MAX_NESTING, MAX_TERMS
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


def test_nesting_is_bounded_by_a_parse_error():
    depth = MAX_NESTING
    assert parse_polynomial("(" * depth + "x*y" + ")" * depth, V).to_string() == "x*y"
    # the refusal names the first parenthesis past the limit, even on a
    # later line and far beyond the interpreter's recursion limit
    text = "x +\n " + "(" * 3000 + "y" + ")" * 3000
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, V)
    assert (info.value.line, info.value.column) == (2, 2 + MAX_NESTING)
    assert f"nested deeper than {MAX_NESTING}" in str(info.value)


def test_expansion_is_bounded_by_a_parse_error():
    # a power of t > 1 terms has at most comb(n+t-1, t-1) terms: (x+y)^n has
    # n+1, so the last power of x+y under the bound parses and the next is
    # refused at its operator; a product is bounded by its term products
    n = MAX_TERMS - 1
    assert len(parse_polynomial(f"(x+y)^{n}", V).terms) == MAX_TERMS
    for text, column in ((f"(x+y)^{n + 1}", 6), (f"x + (x-y)^2^{n}", 12)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, V)
        assert (info.value.line, info.value.column) == (1, column)
        assert f"more than {MAX_TERMS} terms" in str(info.value)
    row = "(" + " + ".join(f"x^{i}" for i in range(40)) + ")"
    assert len(parse_polynomial(f"{row}*(x+y)", V).terms) == 80
    with pytest.raises(ParseError) as info:
        parse_polynomial(f"{row}*{row}", V)
    assert info.value.column == len(row) + 1
    assert "product of 40 and 40 terms" in str(info.value)
    # the power of one term is never refused for its term count: it scales
    # the exponents (its coefficient is bounded, see the test below)
    assert parse_polynomial("(-x*y^2)^100000", V).terms == {(100000, 200000): 1}
    assert parse_polynomial("(x+y)^0", V).to_string() == "1"


def test_long_integer_literals_are_a_parse_error():
    digits = "7" * 5000
    for text, column in ((digits, 1), (f"x^{digits}", 3), (f"1/{digits}*x", 3)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, V)
        assert (info.value.line, info.value.column) == (1, column)
        assert "integer literal of 5000 digits is too long" in str(info.value)


def test_coefficients_past_the_conversion_limit_are_a_parse_error():
    # every numerator and denominator is held to the limit that refuses a
    # long literal (4,300 digits by default) at each operator: a power by a
    # bound checked before it is built, a sum or a product once built
    refused = (
        ("3^10000*x*y + x^2*y^2", 2, "power 10000"),
        ("3^10000000", 2, "power 10000000"),
        ("(3^100*x + y)^999", 14, "power 999"),
        ("(-2*x*y^2)^100000", 11, "power 100000"),
        ("10^4300", 3, "power 4300"),
        ("x + 1/3^9100", 8, "power 9100"),
        ("3^5000*3^5000", 7, "product"),
        ("(3^5000*x + y)*(3^5000*x - y)", 15, "product"),
        ("9*10^4299 + 9*10^4299", 11, "sum"),
        ("x - 1/2^14000 - 1/3^8900", 15, "sum"),
        ("(2*x)^1" + "0" * 400, 6, "power 1" + "0" * 400),
    )
    for text, column, what in refused:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, V)
        assert (info.value.line, info.value.column) == (1, column), text[:40]
        assert f"{what} may have a coefficient of more than" in str(info.value)
    # up to the limit, coefficients are printable
    printable = (
        "10^4299*x + 10^4299*x",
        "9" * 4299 + "*x",
        "1/3^9000*x",
        "3^9000 - 3^9000",
        "(1/2 + 1/3*x)^100",
        # an exponent too large for a float scales a monomial's exponents
        "(-x)^1" + "0" * 400,
    )
    for text in printable:
        parse_polynomial(text, V).to_string()


def test_the_coefficient_bound_follows_the_interpreter_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(10000)
        assert parse_polynomial("3^10000", V).terms == {(0, 0): 3**10000}
        with pytest.raises(ParseError, match="more than 10000 digits"):
            parse_polynomial("3^30000", V)
        sys.set_int_max_str_digits(0)
        assert parse_polynomial("3^30000", V).terms == {(0, 0): 3**30000}
    finally:
        sys.set_int_max_str_digits(limit)


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
    "text, line, column, what",
    [
        # CR LF is one line break, and CR alone is a blank
        ("x\r\ny", 2, 1, "unexpected 'y'"),
        ("x\ry", 1, 3, "unexpected 'y'"),
        # a tab is one column
        ("\tx y", 1, 4, "unexpected 'y'"),
        # vertical tab and form feed are not blanks
        ("x\vy", 1, 2, "unexpected character '\\x0b'"),
        ("x +\n\fy", 2, 1, "unexpected character '\\x0c'"),
        ("x +\n  y )", 2, 5, "unexpected ')'"),
        # the end of input after a trailing line break starts the next line
        ("x +\n", 2, 1, "unexpected end of input"),
        ("x +\n\n \t", 3, 3, "unexpected end of input"),
    ],
)
def test_positions_count_blanks_and_line_breaks(text, line, column, what):
    with pytest.raises(ParseError) as caught:
        parse_polynomial(text, V)
    assert str(caught.value).split(" (expected ")[0] == f"line {line}, column {column}: {what}"
    assert (caught.value.line, caught.value.column) == (line, column)


@pytest.mark.parametrize("text, line, column", [("x +\r\nq", 2, 1), ("\tq", 1, 2), ("x\n\t+ q", 2, 4)])
def test_unknown_variables_are_placed_past_blanks_and_line_breaks(text, line, column):
    with pytest.raises(UnknownVariable) as caught:
        parse_polynomial(text, V)
    assert (caught.value.name, caught.value.line, caught.value.column) == ("q", line, column)


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
