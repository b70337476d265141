"""The exponent-level pull-back along blow-up chart maps, checked against
the general ring map: ``helpers.substitute`` along ``Chart.phi``, then division or
multiplication by the exceptional variable."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import GradedCdga, GradedVariable, NotDivisible, blowup_charts, exact_divide
from stabred.poly import Polynomial

from helpers import FULL1, poly, substitute

MOVING = ("x", "y", "z")
FIXED = ("p", "q")


@st.composite
def charts_and_polynomials(draw):
    """A chart of a rank-1 scene with 1-3 moving and 0-2 fixed variables,
    and a polynomial of at most 5 terms over the scene's ring."""
    moving = MOVING[: draw(st.integers(1, 3))]
    fixed = FIXED[: draw(st.integers(0, 2))]
    variables = tuple(GradedVariable(m, (draw(st.sampled_from((-2, -1, 1, 2))),)) for m in moving)
    variables += tuple(GradedVariable(f, (0,)) for f in fixed)
    x = GradedCdga(1, variables)
    chart = draw(st.sampled_from(blowup_charts(x, FULL1)))
    exponents = st.tuples(*(st.integers(0, 2) for _ in variables))
    terms = draw(st.dictionaries(exponents, st.sampled_from((-2, -1, 1, 2)), max_size=5))
    return x, chart, Polynomial(x.var_names, terms)


def images(chart, strict=False):
    """The chart map's exponents, read off ``Chart.phi``; ``strict`` zeroes
    the exponent of xi, the first chart variable, which gives the map
    x_c -> 1, x_m -> u_m of a strict transform."""
    assert chart.cdga.var_names[0] == chart.exceptional.name
    return tuple((0,) + e[1:] if strict else e for e in chart.images)


def xi_power(chart, k):
    return tuple(k if v == chart.exceptional.name else 0 for v in chart.cdga.var_names)


def outcome(compute):
    """The polynomial ``compute`` returns, or NotDivisible when it raises that."""
    try:
        return compute()
    except NotDivisible:
        return NotDivisible


def assert_clean(p):
    assert all(p.terms.values())
    assert Polynomial(p.variables, p.terms) == p


@settings(max_examples=200, deadline=None)
@given(charts_and_polynomials(), st.sampled_from((-1, 0, 1)))
def test_pull_back_matches_substitute_along_phi(case, k):
    x, chart, p = case
    ring = chart.cdga.var_names
    xi = Polynomial.variable(ring, chart.exceptional.name)

    def oracle():
        image = substitute(p, dict(chart.phi), ring)
        if k < 0:
            return exact_divide(image, xi)
        return image * xi if k > 0 else image

    expected = outcome(oracle)
    got = outcome(lambda: p.pull_back(ring, images(chart), xi_power(chart, k)))
    assert got == expected
    if got is not NotDivisible:
        assert_clean(got)


@settings(max_examples=200, deadline=None)
@given(charts_and_polynomials())
def test_strict_pull_back_matches_the_substitution_into_slopes(case):
    x, chart, p = case
    ring = chart.cdga.var_names
    strict = {chart.center_var: Polynomial.constant(ring, 1)}
    strict.update((m, Polynomial.variable(ring, u)) for m, u in chart.slopes)
    got = p.pull_back(ring, images(chart, strict=True))
    assert got == substitute(p, strict, ring)
    assert_clean(got)


def test_strict_pull_back_sums_colliding_terms_and_drops_zero_sums():
    x = GradedCdga(1, (GradedVariable("x", (1,)), GradedVariable("y", (-1,)), GradedVariable("p", (0,))))
    chart = blowup_charts(x, FULL1)[0]
    assert chart.center_var == "x"
    ring = chart.cdga.var_names
    strict = images(chart, strict=True)
    assert poly("x*y - y", x.var_names).pull_back(ring, strict).is_zero()
    assert poly("x^2*y + 2*x*y - p", x.var_names).pull_back(ring, strict) == poly("3*u_y - p", ring)


def test_a_term_without_the_exceptional_factor_is_not_divisible():
    x = GradedCdga(1, (GradedVariable("x", (1,)), GradedVariable("y", (-1,)), GradedVariable("p", (0,))))
    chart = blowup_charts(x, FULL1)[0]
    ring = chart.cdga.var_names
    assert poly("x*y + x*p", x.var_names).pull_back(ring, images(chart), xi_power(chart, -1)) == poly(
        "xi*u_y + p", ring
    )
    with pytest.raises(NotDivisible, match=r"xi does not divide the pull-back of x\*y \+ p"):
        poly("x*y + p", x.var_names).pull_back(ring, images(chart), xi_power(chart, -1))
