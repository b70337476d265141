import random
from fractions import Fraction

import pytest

from stabred import (
    Ideal,
    NotDivisible,
    eliminate,
    exact_divide,
    ideal_equal,
    intersect,
    monomial_ideal,
    monomial_intersection,
    saturate,
)
import stabred.ideal
from stabred.groebner import buchberger
from stabred.ideal import fresh_names
from stabred.poly import LEX, Polynomial

from helpers import ideal_of, poly, refuse_buchberger, strings
from test_poly import random_poly

V = ("x", "y")


def test_membership():
    I = ideal_of(V, "x^2 - 1", "x*y - 1")
    assert I.contains(poly("x^2 - 1", V))
    assert I.contains(poly("x - y", V))
    assert not I.contains(poly("y", V))
    assert I.contains(Polynomial.zero(V))
    assert not Ideal.zero(V).contains(poly("1", V))


def test_ideal_equal_mathematical():
    assert ideal_equal(ideal_of(V, "x^2 - 1", "x*y - 1"), ideal_of(V, "x - y", "y^2 - 1"))
    assert not ideal_equal(ideal_of(V, "x"), ideal_of(V, "x^2"))
    assert ideal_equal(Ideal.zero(V), Ideal.zero(V))
    assert ideal_equal(ideal_of(V, "2"), Ideal.unit(V))
    assert ideal_equal(ideal_of(V, "x", "0"), ideal_of(V, "x"))


def test_dataclass_equality_is_syntactic():
    a = ideal_of(V, "x", "y")
    b = ideal_of(V, "y", "x")
    assert a != b
    assert ideal_equal(a, b)
    assert a == ideal_of(V, "x", "y")


def test_canonical_generators_frozen():
    I = ideal_of(V, "x^2 - 1", "x*y - 1")
    assert strings(I.groebner()) == ("y^2 - 1", "x - y")


def test_saturate_frozen_values():
    ring = ("xi", "v")
    I = ideal_of(ring, "xi^3*v", "xi^3*v^2")
    assert strings(saturate(I, poly("xi", ring)).groebner()) == ("v",)
    # the generators share the factor x*y, so saturating by it gives the unit ideal
    J = ideal_of(V, "x^2*y", "x*y^2")
    assert saturate(J, poly("x*y", V)).is_unit()
    assert strings(saturate(J, poly("x", V)).groebner()) == ("y",)


def test_saturate_degenerate_multipliers():
    I = ideal_of(V, "x^2")
    assert saturate(I, poly("5", V)).generators == I.generators
    assert saturate(I, Polynomial.zero(V)).is_unit()


def test_saturate_idempotence():
    rng = random.Random(3)
    for _ in range(12):
        gens = tuple(random_poly(rng, max_degree=2, max_terms=2) for _ in range(2))
        I = Ideal(V, tuple(g for g in gens if not g.is_zero()))
        f = poly(rng.choice(("x", "y", "x*y")), V)
        once = saturate(I, f)
        assert ideal_equal(saturate(once, f), once)


def test_eliminate():
    I = ideal_of(V, "x*y - 1", "x^2")
    assert eliminate(I, ("x",)).is_unit()
    assert eliminate(I, ()) == I
    circle = ideal_of(V, "x^2 + y^2 - 1")
    assert eliminate(circle, ("x",)).is_zero()


def test_eliminate_drops_variables_from_the_ring():
    I = ideal_of(V, "x - y^2")
    J = eliminate(I, ("x",))
    assert J.variables == ("y",)
    assert J.is_zero()


def test_eliminate_returns_its_reduced_grevlex_basis(monkeypatch):
    calls = []

    def counted(generators, *args):
        calls.append(1)
        return buchberger(generators, *args)

    monkeypatch.setattr(stabred.ideal, "buchberger", counted)
    ring = ("s", "t", "x", "y")
    rng = random.Random(31)
    nonzero = 0
    for _ in range(30):
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(1, 3))]
        names = ring[: rng.randint(1, 2)]
        J = eliminate(Ideal(ring, gens), names)
        calls.clear()
        assert J.groebner() == buchberger(J.generators)
        assert not calls
        nonzero += not J.is_zero()
    assert nonzero >= 10


def test_intersect_frozen_values():
    assert strings(intersect(ideal_of(V, "x"), ideal_of(V, "y")).groebner()) == ("x*y",)
    got = intersect(ideal_of(V, "x^2", "y"), ideal_of(V, "x"))
    assert strings(got.groebner()) == ("x^2", "x*y")
    assert intersect(ideal_of(V, "x"), Ideal.zero(V)).is_zero()


def test_intersect_contains_products():
    rng = random.Random(5)
    for _ in range(10):
        a = random_poly(rng, max_degree=2, max_terms=2)
        b = random_poly(rng, max_degree=2, max_terms=2)
        if a.is_zero() or b.is_zero():
            continue
        meet = intersect(Ideal(V, (a,)), Ideal(V, (b,)))
        assert meet.contains(a * b)


def test_exact_divide():
    ring = ("xi", "v")
    xi = poly("xi", ring)
    assert exact_divide(poly("xi^3*v", ring), xi).to_string() == "xi^2*v"
    assert exact_divide(poly("xi^2*v + xi", ring), xi).to_string() == "xi*v + 1"
    with pytest.raises(NotDivisible):
        exact_divide(poly("xi*v + 1", ring), xi)
    assert exact_divide(poly("x^2*y^2", V), poly("x*y", V)).to_string() == "x*y"
    assert exact_divide(Polynomial.zero(V), poly("x", V)).is_zero()
    assert exact_divide(poly("x^2 - y^2", V), poly("x + y", V)).to_string() == "x - y"
    with pytest.raises(NotDivisible):
        exact_divide(poly("x^2 + y^2", V), poly("x + y", V))


def test_exact_divide_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        f = random_poly(rng)
        g = poly(rng.choice(("x", "y")), V)
        assert exact_divide(f * g, g) == f


def test_ideal_constructors():
    assert Ideal.zero(V).is_zero()
    assert Ideal.unit(V).is_unit()


def test_saturate_and_intersect_identities_return_an_operand():
    # (0 : f^inf) = 0, (1 : f^inf) = 1 and I ∩ (1) = I need no basis
    I = ideal_of(V, "x*y - 1")
    zero, unit = Ideal.zero(V), Ideal.unit(V)
    assert saturate(zero, poly("x", V)) is zero
    assert saturate(unit, poly("x", V)) is unit
    assert intersect(I, unit) is I and intersect(unit, I) is I
    assert intersect(I, zero) is zero and intersect(zero, I) is zero


def test_monomial_ideal_keeps_the_minimal_monomials_as_its_basis(monkeypatch):
    refuse_buchberger(monkeypatch)
    I = monomial_ideal(V, [(2, 1), (1, 0), (0, 3), (1, 0), (1, 4)])
    assert strings(I.generators) == ("y^3", "x")
    assert I.groebner() == I.generators
    assert strings(I.groebner(LEX)) == ("x", "y^3")
    assert monomial_ideal(V, []).is_zero()
    assert strings(monomial_ideal(V, [(0, 0), (3, 1)]).generators) == ("1",)


def test_monomial_ideal_refuses_what_is_not_an_exponent_tuple():
    # checked on every tuple, not only the minimal ones it keeps
    for exponents in ([(1, -1)], [(1, 0), (2, 0, 0)], [(1, 0), (2,)], [(0, 0), (1, -1)]):
        with pytest.raises(ValueError, match="is not an exponent tuple"):
            monomial_ideal(V, exponents)
    assert monomial_ideal(V, [[1, 2], (True, 0)]).generators == monomial_ideal(V, [(1, 0)]).generators


def test_monomial_intersection_refuses_what_it_cannot_read():
    with pytest.raises(ValueError, match="not a monomial"):
        monomial_intersection(ideal_of(V, "x"), ideal_of(V, "x - y"))
    with pytest.raises(ValueError, match="different rings"):
        monomial_intersection(ideal_of(V, "x"), ideal_of(("x",), "x"))
    # each monomial ideal intersected with the unit or zero ideal
    assert strings(monomial_intersection(ideal_of(V, "x*y", "2*x"), Ideal.unit(V)).generators) == ("x",)
    assert monomial_intersection(ideal_of(V, "x"), Ideal.zero(V)).is_zero()


def test_fresh_name():
    assert fresh_names((), {"v"}) == ()
    assert fresh_names(("v",), set()) == ("v",)
    assert fresh_names(("v",), {"v"}) == ("v0",)
    assert fresh_names(("v",), {"v", "v0"}) == ("v1",)
    # each name avoids the names picked before it as well as ``taken``
    assert fresh_names(("v", "v", "v0"), set()) == ("v", "v0", "v00")
    # two equal bases that collide with ``taken`` get distinct suffixes
    assert fresh_names(("u_x", "u_x"), {"u_x"}) == ("u_x0", "u_x1")
    assert fresh_names(("u_x0", "u_x1"), {"u_x0", "u_x1"}) == ("u_x00", "u_x10")
    assert fresh_names(("u_x0", "u_x0"), {"u_x0", "u_x00"}) == ("u_x01", "u_x02")
    # ``taken`` may be any iterable and is left as it was
    taken = ["xi"]
    assert fresh_names(("xi", "xi"), taken) == ("xi0", "xi1")
    assert taken == ["xi"]
