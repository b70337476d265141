"""The chart map of ``blowup._chart_map``, one exponent gather per term,
checked against the general ring map: ``helpers.substitute`` along the chart
map built by name from ``center_var`` and ``slopes`` (``helpers.chart_images``),
then division or multiplication by the exceptional variable.  ``Chart.phi``
is built by the routine under test, so it is checked against that
definition too, not used as the oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabred import (
    GradedCdga,
    GradedVariable,
    Ideal,
    NotDivisible,
    SubtorusBasis,
    blowup_charts,
    exact_divide,
    weight_split,
)
from stabred.blowup import _chart_map
from stabred.poly import Polynomial

from helpers import FULL1, chart_images, poly, pull_back, substitute

MOVING = ("x", "y", "z")
FIXED = ("p", "q")
# the whole rank-2 torus and three of its one-parameter subtori, each the
# witness of a different flat
SUBTORI2 = (
    SubtorusBasis.full(2),
    SubtorusBasis(2, [(1, 0)]),
    SubtorusBasis(2, [(0, 1)]),
    SubtorusBasis(2, [(1, -1)]),
)


@st.composite
def charts_and_polynomials(draw):
    """A chart of a rank-1 or rank-2 scene with 1-3 weighted and 0-2
    weight-zero variables, blown up along one of several subtori, and a
    polynomial of at most 5 terms over the scene's ring.  A weighted
    variable the subtorus fixes lands among the chart's fixed variables
    wherever the parent ring has it."""
    rank = draw(st.sampled_from((1, 2)))
    weights = st.tuples(*(st.integers(-2, 2) for _ in range(rank)))
    variables = tuple(GradedVariable(m, draw(weights)) for m in MOVING[: draw(st.integers(1, 3))])
    variables += tuple(GradedVariable(f, (0,) * rank) for f in FIXED[: draw(st.integers(0, 2))])
    subtorus = FULL1 if rank == 1 else draw(st.sampled_from(SUBTORI2))
    x = GradedCdga(rank, variables)
    assume(weight_split(x, subtorus).moving)
    chart = draw(st.sampled_from(blowup_charts(x, subtorus)))
    exponents = st.tuples(*(st.integers(0, 2) for _ in variables))
    terms = draw(st.dictionaries(exponents, st.sampled_from((-2, -1, 1, 2)), max_size=5))
    return x, chart, Polynomial(x.var_names, terms)


def chart_map(x, chart):
    return _chart_map(x.var_names, chart.cdga.var_names, chart.center_var, chart.slopes)


def phi_by_name(x, chart):
    """The chart map's image of each parent variable, from ``chart_images``."""
    ring = chart.cdga.var_names
    return {v: Polynomial(ring, {e: 1}) for v, e in zip(x.var_names, chart_images(chart, x.var_names))}


def outcome(compute):
    """The polynomial ``compute`` returns, or NotDivisible when it raises that."""
    try:
        return compute()
    except NotDivisible:
        return NotDivisible


def assert_clean(p):
    assert all(p.terms.values())
    assert Polynomial(p.variables, p.terms) == p


@settings(max_examples=300, deadline=None)
@given(charts_and_polynomials(), st.sampled_from((-1, 0, 1)))
def test_pull_back_matches_substitute_along_phi(case, k):
    x, chart, p = case
    ring = chart.cdga.var_names
    xi = Polynomial.variable(ring, chart.cdga.ring_vars[0].name)
    pull, _ = chart_map(x, chart)

    def oracle():
        image = substitute(p, phi_by_name(x, chart), ring)
        if k < 0:
            return exact_divide(image, xi)
        return image * xi if k > 0 else image

    expected = outcome(oracle)
    got = outcome(lambda: pull(p, k))
    assert got == expected
    if got is not NotDivisible:
        assert_clean(got)
        assert list(got.terms.values()) == list(p.terms.values())


@settings(max_examples=200, deadline=None)
@given(charts_and_polynomials())
def test_phi_is_the_chart_map_by_name(case):
    x, chart, _ = case
    ring = chart.cdga.var_names
    assert chart.cdga.ring_vars[0].weight == x.weight_of(chart.center_var)
    assert tuple(u for _, u in chart.slopes) == ring[1 : 1 + len(chart.slopes)]
    assert chart.phi == tuple(phi_by_name(x, chart).items())
    # center -> xi, m -> xi*u_m, fixed -> itself
    slope_of = dict(chart.slopes)
    for v, image in chart.phi:
        if v == chart.center_var:
            assert image == Polynomial.variable(ring, ring[0])
        elif v in slope_of:
            assert image == Polynomial.variable(ring, ring[0]) * Polynomial.variable(ring, slope_of[v])
        else:
            assert image == Polynomial.variable(ring, v)


@settings(max_examples=200, deadline=None)
@given(charts_and_polynomials())
def test_strict_pull_back_matches_the_substitution_into_slopes(case):
    x, chart, p = case
    ring = chart.cdga.var_names
    _, strict = chart_map(x, chart)
    slopes = {chart.center_var: Polynomial.constant(ring, 1)}
    slopes.update((m, Polynomial.variable(ring, u)) for m, u in chart.slopes)
    ideal = Ideal(x.var_names, tuple(Polynomial.monomial(x.var_names, e) for e in p.terms))
    expected = [next(iter(substitute(g, slopes, ring).terms)) for g in ideal.generators]
    assert strict(ideal) == expected


def test_strict_pull_back_sums_colliding_terms_and_drops_zero_sums():
    # the reference routine sums what lands on one monomial; the chart's
    # strict transform reads monomial ideals only, where nothing is summed
    x = GradedCdga(1, (GradedVariable("x", (1,)), GradedVariable("y", (-1,)), GradedVariable("p", (0,))))
    chart = blowup_charts(x, FULL1)[0]
    assert chart.center_var == "x"
    ring = chart.cdga.var_names
    strict = tuple((0,) + e[1:] for e in chart_images(chart, x.var_names))
    assert pull_back(poly("x*y - y", x.var_names), ring, strict).is_zero()
    assert pull_back(poly("x^2*y + 2*x*y - p", x.var_names), ring, strict) == poly("3*u_y - p", ring)
    _, chart_strict = chart_map(x, chart)
    ideal = Ideal(x.var_names, (poly("x*y", x.var_names), poly("y", x.var_names)))
    assert chart_strict(ideal) == [(0, 1, 0), (0, 1, 0)]


def test_a_term_without_the_exceptional_factor_is_not_divisible():
    x = GradedCdga(1, (GradedVariable("x", (1,)), GradedVariable("y", (-1,)), GradedVariable("p", (0,))))
    chart = blowup_charts(x, FULL1)[0]
    ring = chart.cdga.var_names
    pull, _ = chart_map(x, chart)
    assert pull(poly("x*y + x*p", x.var_names), -1) == poly("xi*u_y + p", ring)
    with pytest.raises(NotDivisible, match=r"xi does not divide the pull-back of x\*y \+ p"):
        pull(poly("x*y + p", x.var_names), -1)


def test_a_one_variable_chart_ring_is_the_center_alone():
    # the gather of one index is the identity, not the int itemgetter returns
    x = GradedCdga(1, (GradedVariable("x", (2,)),))
    (chart,) = blowup_charts(x, FULL1)
    assert chart.cdga.var_names == ("xi",) and chart.slopes == ()
    pull, strict = chart_map(x, chart)
    p = poly("x^3 - 2*x", x.var_names)
    assert pull(p, -1) == poly("xi^2 - 2", ("xi",))
    assert pull(p, 1) == poly("xi^4 - 2*xi^2", ("xi",))
    assert pull(Polynomial.constant(x.var_names, 3)) == Polynomial.constant(("xi",), 3)
    with pytest.raises(NotDivisible):
        pull(poly("x + 1", x.var_names), -1)
    assert strict(Ideal(x.var_names, (poly("x^2", x.var_names),))) == [(0,)]
    assert chart.phi == (("x", poly("xi", ("xi",))),)
