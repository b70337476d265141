"""Properties of ideal operations on small random inputs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabred import (
    GradedCdga,
    GradedVariable,
    Ideal,
    blowup_charts,
    ideal_equal,
    intersect,
    monomial_ideal,
    monomial_intersection,
    saturate,
)
from stabred.groebner import buchberger
from stabred.poly import GREVLEX, LEX, ElimOrder, Polynomial

from helpers import FULL1, substitute

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
    """A chart of a rank-1 presentation over at most 4 variables, at least
    one of them moving, whose parent removed a random monomial locus."""
    ring, gens, _ = draw(monomial_ideals())
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(ring), max_size=len(ring)))
    assume(any(weights))
    variables = tuple(GradedVariable(v, (w,)) for v, w in zip(ring, weights))
    x = GradedCdga(1, variables, excluded=_ideal(ring, gens))
    return x, draw(st.sampled_from(blowup_charts(x, FULL1)))


@settings(max_examples=150, deadline=None)
@given(charted_exclusions())
def test_strict_pull_back_is_the_saturation_of_the_total_pull_back(case):
    x, chart = case
    ring = chart.cdga.var_names
    total = Ideal(ring, tuple(substitute(g, dict(chart.phi), ring) for g in x.excluded.generators))
    xi = Polynomial.variable(ring, chart.exceptional.name)
    assert chart.cdga.excluded.generators == saturate(total, xi).groebner()
