"""Cross-checks of the Groebner-based kernel against independent oracles.

The linear-algebra oracle writes a candidate certificate f = sum of
h_i*g_i with undetermined bounded-degree coefficients and decides
solvability by Gaussian elimination, sharing no code with the
division/Buchberger path.  Reduced bases are also compared with sympy's,
where sympy is installed.
"""

import random
from fractions import Fraction

import pytest

from stabred import Ideal, eliminate, ideal_equal, saturate
from stabred.groebner import buchberger
from stabred.poly import GREVLEX, LEX, Polynomial

from helpers import (
    ORACLE_CEILING,
    _linear_solvable,
    ideal_of,
    monomials_up_to,
    oracle_member,
    poly,
)
from test_poly import random_poly

V = ("x", "y")


def agreed_membership(f, ideal):
    """Both answers, with the oracle escalated when the kernel says yes."""
    mine = ideal.contains(f)
    theirs = oracle_member(f, ideal.generators)
    if mine and not theirs:
        theirs = oracle_member(f, ideal.generators, bounds=(ORACLE_CEILING,))
    return mine, theirs


def test_solver_basics():
    # x + y = target has a solution; x = 1 and x = 2 simultaneously does not
    assert _linear_solvable([{0: Fraction(1)}, {1: Fraction(1)}], {0: Fraction(3)})
    assert not _linear_solvable([{0: Fraction(1), 1: Fraction(1)}], {0: Fraction(1), 1: Fraction(2)})
    assert _linear_solvable([], {})


def test_monomial_enumeration():
    assert set(monomials_up_to(2, 1)) == {(0, 0), (1, 0), (0, 1)}
    assert len(monomials_up_to(2, 6)) == 28


def test_oracle_detects_constructed_members():
    rng = random.Random(101)
    for _ in range(20):
        g1 = random_poly(rng, max_degree=3, max_terms=3)
        g2 = random_poly(rng, max_degree=3, max_terms=3)
        gens = tuple(g for g in (g1, g2) if not g.is_zero())
        if not gens:
            continue
        f = sum(
            (random_poly(rng, max_degree=2, max_terms=2) * g for g in gens),
            Polynomial.zero(V),
        )
        assert oracle_member(f, gens)


def test_oracle_rejects_clear_non_members():
    assert not oracle_member(poly("1", V), (poly("x", V), poly("y", V)))
    assert not oracle_member(poly("y", V), (poly("x^2", V),))
    assert not oracle_member(poly("x", V), (poly("x^2", V), poly("x^3 + x^2", V)))


def test_membership_agreement_on_random_ideals():
    rng = random.Random(202)
    disagreements = 0
    for _ in range(30):
        gens = tuple(
            g
            for g in (random_poly(rng, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 2)))
            if not g.is_zero()
        )
        ideal = Ideal(V, gens)
        queries = [random_poly(rng, max_degree=3, max_terms=3)]
        if gens:
            queries.append(
                sum(
                    (random_poly(rng, max_degree=2, max_terms=2) * g for g in gens),
                    Polynomial.zero(V),
                )
            )
        for f in queries:
            mine, theirs = agreed_membership(f, ideal)
            if mine != theirs:
                disagreements += 1
    assert disagreements == 0


def oracle_ideal_equal(a, b):
    forward = all(oracle_member(g, b.generators, bounds=(4, ORACLE_CEILING)) for g in a.generators)
    backward = all(oracle_member(g, a.generators, bounds=(4, ORACLE_CEILING)) for g in b.generators)
    return forward and backward


def test_equality_agreement():
    rng = random.Random(303)
    for _ in range(8):
        g1 = random_poly(rng, max_degree=2, max_terms=2)
        g2 = random_poly(rng, max_degree=2, max_terms=2)
        gens = tuple(g for g in (g1, g2) if not g.is_zero())
        if not gens:
            continue
        I = Ideal(V, gens)
        # same ideal, rewritten generators
        rewritten = tuple(g * Fraction(3) for g in reversed(gens))
        combined = rewritten + (gens[0] * poly("x", V) + gens[-1],)
        J = Ideal(V, combined)
        assert ideal_equal(I, J) == oracle_ideal_equal(I, J) == True
        # usually a strictly bigger ideal
        K = Ideal(V, gens + (random_poly(rng, max_degree=2, max_terms=2),))
        assert ideal_equal(I, K) == oracle_ideal_equal(I, K)


SATURATION_CASES = (
    (("x^2*y",), "x"),
    (("x^2*y", "x*y^2"), "x"),
    (("x^2", "x*y"), "x"),
    (("x^2*y^2",), "x*y"),
    (("x^2 - x*y",), "x"),
    (("y^2", "x*y"), "y"),
)


def test_saturation_against_oracle():
    for gens_text, f_text in SATURATION_CASES:
        I = ideal_of(V, *gens_text)
        f = poly(f_text, V)
        S = saturate(I, f)
        # soundness: every reported generator is cleared into I by a power of f
        for s in S.generators:
            powers = [s]
            for _ in range(4):
                powers.append(powers[-1] * f)
            assert any(oracle_member(p, I.generators, bounds=(4, 8)) for p in powers)
        # the saturation contains the ideal
        for g in I.generators:
            assert oracle_member(g, S.generators, bounds=(4, 8))
        # completeness sweep over low-degree monomials
        for exps in monomials_up_to(2, 2):
            m = Polynomial.monomial(V, exps, Fraction(1))
            cleared = m
            in_sat_truth = False
            for _ in range(5):
                if oracle_member(cleared, I.generators, bounds=(3, 6)):
                    in_sat_truth = True
                    break
                cleared = cleared * f
            reported = oracle_member(m, S.generators, bounds=(3, 6))
            if in_sat_truth and not reported:
                reported = oracle_member(m, S.generators, bounds=(ORACLE_CEILING,))
            assert reported == in_sat_truth
            assert S.contains(m) == in_sat_truth


def sympy_polys(sympy, gens, symbols):
    return [
        sympy.Poly.from_dict(
            {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in g.terms.items()},
            *symbols, domain="QQ",
        )
        for g in gens
    ]


def _sympy_basis(sympy, polys, symbols, order):
    """sympy's reduced basis as sets of terms, each element scaled by its
    leading coefficient in ``order`` (``Poly.monic`` would use lex)."""
    basis = set()
    if not polys:
        return basis
    for p in sympy.groebner(polys, *symbols, order=order.kind, domain="QQ").polys:
        p = p.quo_ground(p.LC(order=order.kind))
        basis.add(frozenset((exps, Fraction(int(c.p), int(c.q))) for exps, c in p.terms()))
    return basis


def sympy_reduced_basis(sympy, gens, variables, order):
    symbols = sympy.symbols(variables)
    return _sympy_basis(sympy, sympy_polys(sympy, gens, symbols), symbols, order)


def sympy_eliminated_basis(sympy, polys, front, kept):
    """The reduced grevlex basis of the ideal of ``polys`` meet the subring
    of the ``kept`` symbols: the members of a lex basis with the ``front``
    symbols first that are free of them, reduced again."""
    lex = sympy.groebner(polys, *front, *kept, order="lex", domain="QQ")
    free = [sympy.Poly(p, *kept, domain="QQ") for p in lex.exprs if not p.has(*front)]
    return _sympy_basis(sympy, free, kept, GREVLEX)


def _random_ideal(rng, variables):
    size = rng.randint(1, 3)
    gens = []
    while len(gens) < size:
        g = random_poly(rng, variables, max_degree=2, max_terms=3)
        if not g.is_zero():
            gens.append(g)
    return Ideal(variables, tuple(gens))


def basis_terms(basis):
    return {frozenset(g.terms.items()) for g in basis}


def test_buchberger_against_sympy():
    sympy = pytest.importorskip("sympy")
    variables = ("x", "y", "z")
    rng = random.Random(59)
    for _ in range(25):
        size = rng.randint(2, 3)
        gens = []
        while len(gens) < size:
            g = random_poly(rng, variables, max_degree=2, max_terms=3)
            if not g.is_zero():
                gens.append(g)
        for order in (GREVLEX, LEX):
            mine = {frozenset(g.terms.items()) for g in buchberger(tuple(gens), order)}
            assert mine == sympy_reduced_basis(sympy, gens, variables, order)


def test_buchberger_with_multiples_against_sympy():
    # inputs that repeat a generator or multiply one by a monomial, which
    # ``buchberger`` drops before forming pairs, in any position
    sympy = pytest.importorskip("sympy")
    rng = random.Random(71)
    for _ in range(25):
        variables = ("x", "y", "z")[: rng.randint(2, 3)]
        size = rng.randint(1, 3)
        gens = []
        while len(gens) < size:
            g = random_poly(rng, variables, max_degree=2, max_terms=3)
            if not g.is_zero():
                gens.append(g)
        padded = list(gens)
        for _ in range(rng.randint(1, 3)):
            shift = tuple(rng.randint(0, 1) for _ in variables)
            multiple = rng.choice(gens) * Polynomial.monomial(variables, shift, rng.choice((1, -2, 3)))
            padded.insert(rng.randint(0, len(padded)), multiple)
        for order in (GREVLEX, LEX):
            mine = basis_terms(buchberger(tuple(padded), order))
            assert mine == sympy_reduced_basis(sympy, padded, variables, order), (padded, order)


def test_eliminate_against_sympy():
    sympy = pytest.importorskip("sympy")
    variables = ("x", "y", "z")
    symbols = sympy.symbols(variables)
    rng = random.Random(61)
    for _ in range(15):
        ideal = _random_ideal(rng, variables)
        polys = [p.as_expr() for p in sympy_polys(sympy, ideal.generators, symbols)]
        for names in (("z",), ("x", "z")):
            front = tuple(s for s, n in zip(symbols, variables) if n in names)
            kept = tuple(s for s, n in zip(symbols, variables) if n not in names)
            mine = basis_terms(eliminate(ideal, names).groebner())
            assert mine == sympy_eliminated_basis(sympy, polys, front, kept), (ideal.generators, names)


def test_saturate_against_sympy():
    # (I : f^inf) is the elimination of t from I + (1 - t*f)
    sympy = pytest.importorskip("sympy")
    variables = ("x", "y", "z")
    symbols = sympy.symbols(variables)
    t = sympy.Symbol("t")
    rng = random.Random(67)
    for _ in range(15):
        ideal = _random_ideal(rng, variables)
        f = random_poly(rng, variables, max_degree=2, max_terms=2)
        if f.is_zero():
            continue
        (f_expr,) = (p.as_expr() for p in sympy_polys(sympy, (f,), symbols))
        polys = [p.as_expr() for p in sympy_polys(sympy, ideal.generators, symbols)]
        expected = sympy_eliminated_basis(sympy, polys + [1 - t * f_expr], (t,), symbols)
        assert basis_terms(saturate(ideal, f).groebner()) == expected, (ideal.generators, f)
