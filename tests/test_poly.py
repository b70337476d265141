import random
from fractions import Fraction

import pytest

from stabred.poly import ElimOrder, GREVLEX, LEX, Polynomial

from helpers import evaluate, poly, pull_back, substitute, total_degree

V = ("x", "y")
X = Polynomial.variable(V, "x")
Y = Polynomial.variable(V, "y")
ONE = Polynomial.constant(V, Fraction(1))


def random_poly(rng, variables=V, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = Fraction(rng.randint(-5, 5))
    return Polynomial(variables, terms)


def test_zero_terms_are_dropped():
    p = Polynomial(V, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}
    assert Polynomial(V, {(3, 3): Fraction(0)}).is_zero()


def test_arithmetic_identities():
    assert ((X + Y) * (X + Y)).to_string() == "x^2 + 2*x*y + y^2"
    assert ((X + ONE) * (X - ONE)).to_string() == "x^2 - 1"
    assert (X ** 3).terms == {(3, 0): Fraction(1)}
    assert (X - X).is_zero()
    assert (-X).to_string() == "-x"
    assert (Fraction(2) * X - X * Fraction(2)).is_zero()


def test_distributivity_on_random_inputs():
    rng = random.Random(11)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


def test_to_string_canonical_forms():
    assert Polynomial.zero(V).to_string() == "0"
    assert Polynomial.constant(V, Fraction(-7)).to_string() == "-7"
    assert poly("x^2*y - 2*x*y^2", V).to_string() == "x^2*y - 2*x*y^2"
    assert (-X + ONE).to_string() == "-x + 1"
    assert (X * Fraction(1, 2) - Y * Fraction(3, 4)).to_string() == "1/2*x - 3/4*y"
    assert Polynomial.monomial(V, (2, 1), Fraction(3)).to_string() == "3*x^2*y"


def test_total_degree():
    assert total_degree(Polynomial.zero(V)) == -1
    assert total_degree(ONE) == 0
    assert total_degree(poly("x^2*y + y", V)) == 3


def test_order_leading_terms():
    p = poly("x^2*y + x*y^2 + y^4", V)
    exps_lex, _ = p.leading(LEX)
    exps_grevlex, _ = p.leading(GREVLEX)
    assert exps_lex == (2, 1)
    assert exps_grevlex == (0, 4)


def test_grevlex_tie_breaking():
    # equal total degree: the monomial with the smaller last exponent wins
    key = GREVLEX.key(V)
    assert key((2, 1)) > key((1, 2))
    ranked = sorted([(1, 2), (2, 1), (0, 3)], key=key, reverse=True)
    assert ranked == [(2, 1), (1, 2), (0, 3)]


def test_elimination_order_front_block_dominates():
    names = ("t", "x")
    order = ElimOrder(("t",))
    p = poly("t + x^5", names)
    exps, _ = p.leading(order)
    assert exps == (1, 0)


def test_orders_of_two_kinds_never_share_a_cached_lead():
    # a front given as one string is the names in it, never the name of a
    # MonomialOrder, so a lead kept for one kind is not read for the other
    names = ("l", "e", "x")
    order = ElimOrder("lex")
    assert order == ElimOrder(names) == ElimOrder._make([list(names)])
    assert order != LEX
    p = poly("l - e^2", names)
    assert p.leading(order)[0] == (0, 2, 0)
    assert p.leading(LEX)[0] == (1, 0, 0)


def test_substitute_and_extend():
    target = ("xi", "u")
    images = {
        "x": Polynomial.variable(target, "xi"),
        "y": poly("xi*u", target),
    }
    p = poly("x^2*y - x*y^2", V)
    assert substitute(p, images, target).to_string() == "-xi^3*u^2 + xi^3*u"
    wide = X.extend(("x", "y", "z"))
    assert wide.variables == ("x", "y", "z")
    assert wide.to_string() == "x"


def test_pull_back_rewrites_exponents():
    # x -> xi, y -> xi*u, then times u^2 / xi
    target = ("xi", "u")
    p = poly("x^2*y - 3*x*y^2 + 5", V)
    pulled = pull_back(p, target, ((1, 0), (1, 1)), (0, 0))
    assert pulled == substitute(p, {"x": poly("xi", target), "y": poly("xi*u", target)}, target)
    assert pull_back(p, target, ((0, 0), (0, 1))).to_string() == "-3*u^2 + u + 5"
    assert pull_back(poly("x*y", V), target, ((1, 0), (1, 1)), (-2, 2)).to_string() == "u^3"
    with pytest.raises(ValueError):
        pull_back(p, target, ((1, 0),))


def test_restrict_drops_unused_variables():
    # restrict is the ring map sending every variable outside the target to 0
    assert poly("x*y", V).restrict(("x",)).is_zero()
    narrow = poly("x^2 + x*y + 1", V).restrict(("x",))
    assert narrow.variables == ("x",)
    assert narrow.to_string() == "x^2 + 1"
    constant = poly("x^2 + x*y - 3", V).restrict(())
    assert constant.variables == ()
    assert constant.to_string() == "-3"
    with pytest.raises(ValueError):
        poly("x", V).restrict(("x", "z"))


def test_partial_derivative():
    assert poly("x^2*y", V).partial("x").to_string() == "2*x*y"
    assert poly("x^2*y", V).partial("y").to_string() == "x^2"
    assert ONE.partial("x").is_zero()


def test_evaluate():
    p = poly("x^2*y - 2*x", V)
    value = evaluate(p, {"x": Fraction(3), "y": Fraction(1, 3)})
    assert value == Fraction(3) - Fraction(6)


def test_monic_and_coefficient_lookup():
    p = poly("2*x^2 + 4*y", V)
    assert p.monic(GREVLEX).to_string() == "x^2 + 2*y"
    assert p.coefficient((0, 1)) == Fraction(4)
    assert p.coefficient((5, 5)) == Fraction(0)


def test_uses():
    p = poly("x^2", V)
    assert p.uses("x") and not p.uses("y")
