"""Properties of ideal operations on small random inputs.  Elimination and
saturation by a polynomial are compared with sympy's lex Groebner route,
an implementation that shares no code with the kernel."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabred import (
    GradedCdga,
    GradedVariable,
    Ideal,
    blowup_charts,
    eliminate,
    ideal_equal,
    intersect,
    monomial_ideal,
    monomial_intersection,
    SubtorusBasis,
    saturate,
    weight_split,
)
from stabred.blowup import _chart_map
from stabred.groebner import buchberger
from stabred.poly import GREVLEX, LEX, ElimOrder, Polynomial

from helpers import chart_images, pull_back, substitute
from test_kernel_oracle import basis_terms, sympy_eliminated_basis, sympy_polys

NAMES = ("a", "b", "c", "d")


@st.composite
def monomial_ideals(draw):
    """A ring of at most 4 variables, monomial generators in it, and one
    of its variables."""
    ring = NAMES[: draw(st.integers(1, 4))]
    exponents = st.tuples(*(st.integers(0, 3) for _ in ring))
    gens = draw(st.lists(exponents, max_size=4))
    v = draw(st.sampled_from(ring))
    return ring, gens, v


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_saturating_a_monomial_ideal_by_a_variable_sets_it_to_one(case):
    ring, gens, v = case
    ideal = Ideal(ring, tuple(Polynomial.monomial(ring, e) for e in gens))
    one = {v: Polynomial.constant(ring, 1)}
    substituted = Ideal(ring, tuple(substitute(g, one, ring) for g in ideal.generators))
    assert ideal_equal(saturate(ideal, Polynomial.variable(ring, v)), substituted)


def _ideal(ring, exponents):
    return Ideal(ring, tuple(Polynomial.monomial(ring, e) for e in exponents))


@st.composite
def monomial_ideal_pairs(draw):
    """A ring of at most 4 variables and two lists of monomial exponents in it."""
    ring, a, _ = draw(monomial_ideals())
    exponents = st.tuples(*(st.integers(0, 3) for _ in ring))
    return ring, a, draw(st.lists(exponents, max_size=4))


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_monomial_ideal_generators_are_the_buchberger_basis(case):
    ring, gens, _ = case
    assert monomial_ideal(ring, gens).generators == buchberger(_ideal(ring, gens).generators, GREVLEX)


@settings(max_examples=150, deadline=None)
@given(monomial_ideals())
def test_a_monomial_ideal_answers_with_the_buchberger_basis_in_both_orders(case):
    # ``monomial_ideal`` keeps its reduced grevlex basis, and reads the lex
    # one off its generators
    ring, gens, _ = case
    ideal = monomial_ideal(ring, gens)
    for order in (GREVLEX, LEX):
        assert ideal.groebner(order) == buchberger(_ideal(ring, gens).generators, order)


@settings(max_examples=150, deadline=None)
@given(monomial_ideals(), st.sampled_from((-3, 1, 2)))
def test_monomial_basis_is_the_buchberger_basis_in_every_order(case, coeff):
    ring, gens, v = case
    for order in (GREVLEX, LEX, ElimOrder(front=(v,)), ElimOrder(front=ring[:2])):
        ideal = Ideal(ring, tuple(Polynomial.monomial(ring, e, coeff) for e in gens))
        assert ideal.groebner(order) == buchberger(ideal.generators, order)
        assert ideal.groebner(order) is ideal.groebner(order)  # cached


@settings(max_examples=150, deadline=None)
@given(monomial_ideal_pairs())
def test_lcm_intersection_is_the_reduced_basis_of_the_buchberger_route(case):
    ring, a, b = case
    ours = monomial_intersection(_ideal(ring, a), _ideal(ring, b))
    assert ours.generators == intersect(_ideal(ring, a), _ideal(ring, b)).groebner()


@st.composite
def charted_exclusions(draw):
    """A chart of a rank-1 or rank-2 presentation over at most 4 variables,
    blown up along the whole torus or a one-parameter subtorus that moves
    one of them, whose parent removed a random monomial locus."""
    ring, gens, _ = draw(monomial_ideals())
    rank = draw(st.sampled_from((1, 2)))
    weights = st.tuples(*(st.integers(-2, 2) for _ in range(rank)))
    variables = tuple(GradedVariable(v, draw(weights)) for v in ring)
    subtorus = draw(st.sampled_from((
        SubtorusBasis.full(rank), SubtorusBasis(rank, [(1,) * rank]), SubtorusBasis(rank, [(1, -1)[:rank]])
    )))
    x = GradedCdga(rank, variables, excluded=_ideal(ring, gens))
    assume(weight_split(x, subtorus).moving)
    return x, draw(st.sampled_from(blowup_charts(x, subtorus)))


@settings(max_examples=150, deadline=None)
@given(charted_exclusions())
def test_strict_pull_back_is_the_saturation_of_the_total_pull_back(case):
    x, chart = case
    ring = chart.cdga.var_names
    # the total pull-back along the chart map built by name, not along phi
    images = chart_images(chart, x.var_names)
    total = Ideal(ring, tuple(pull_back(g, ring, images) for g in x.excluded.generators))
    xi = Polynomial.variable(ring, chart.cdga.ring_vars[0].name)
    expected = saturate(total, xi).groebner()
    _, strict = _chart_map(x.var_names, ring, chart.center_var, chart.slopes)
    assert monomial_ideal(ring, strict(x.excluded)).generators == expected
    assert chart.cdga.excluded.generators == expected


def small_polynomials(ring, min_terms=0):
    """Polynomials of degree at most 2 with at most 3 terms."""
    monomials = [e for e in itertools.product(range(3), repeat=len(ring)) if sum(e) <= 2]
    terms = st.dictionaries(st.sampled_from(monomials), st.sampled_from((-2, -1, 1, 3)), min_size=min_terms, max_size=3)
    return terms.map(lambda t: Polynomial(ring, t))


@st.composite
def small_ideals(draw, min_vars=1):
    """A ring of at most 3 variables and 1 to 3 nonzero generators in it."""
    ring = NAMES[: draw(st.integers(min_vars, 3))]
    return Ideal(ring, tuple(draw(st.lists(small_polynomials(ring, 1), min_size=1, max_size=3))))


def _exprs(sympy, polys, symbols):
    return [p.as_expr() for p in sympy_polys(sympy, polys, symbols)]


@settings(max_examples=100, deadline=None)
@given(small_ideals(min_vars=2), st.data())
def test_eliminate_matches_the_lex_route(ideal, data):
    sympy = pytest.importorskip("sympy")
    ring = ideal.variables
    names = data.draw(st.sets(st.sampled_from(ring), min_size=1, max_size=len(ring) - 1))
    symbols = sympy.symbols(ring)
    front = tuple(s for s, n in zip(symbols, ring) if n in names)
    kept = tuple(s for s, n in zip(symbols, ring) if n not in names)
    expected = sympy_eliminated_basis(sympy, _exprs(sympy, ideal.generators, symbols), front, kept)
    assert basis_terms(eliminate(ideal, sorted(names)).groebner()) == expected


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.data())
def test_saturate_matches_the_lex_route(ideal, data):
    # (I : f^inf) is the elimination of t from I + (t*f - 1)
    sympy = pytest.importorskip("sympy")
    ring = ideal.variables
    f = data.draw(small_polynomials(ring))
    symbols = sympy.symbols(ring)
    t = sympy.Symbol("t")
    (f_expr,) = _exprs(sympy, (f,), symbols)
    polys = _exprs(sympy, ideal.generators, symbols) + [t * f_expr - 1]
    assert basis_terms(saturate(ideal, f).groebner()) == sympy_eliminated_basis(sympy, polys, (t,), symbols)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_restricting_the_reduced_basis_or_the_generators_gives_one_ideal(data):
    # setting the variables off a flat to zero is a surjective ring map, so
    # the image of an ideal is generated by the image of any generating set;
    # the stratum tests restrict the reduced grevlex basis
    ring = NAMES[: data.draw(st.integers(1, 4))]
    ideal = Ideal(ring, tuple(data.draw(st.lists(small_polynomials(ring, 1), min_size=1, max_size=3))))
    flat = tuple(n for n in ring if data.draw(st.booleans()))
    from_basis = Ideal(flat, tuple(g.restrict(flat) for g in ideal.groebner()))
    from_generators = Ideal(flat, tuple(g.restrict(flat) for g in ideal.generators))
    assert ideal_equal(from_basis, from_generators)
