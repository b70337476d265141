"""Polynomial arithmetic builds its results from terms that are clean by
construction, skipping the public constructor's checks; every result must
still be what the checked constructor makes of its terms."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred.groebner import divide
from stabred.poly import GREVLEX, LEX, Polynomial

RING = ("a", "b", "c")
# coefficients that cancel often, so sums and products hit zero terms
COEFFS = st.sampled_from((Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)))


def polynomials(max_size=5):
    exponents = st.tuples(*(st.integers(0, 2) for _ in RING))
    return st.dictionaries(exponents, COEFFS, max_size=max_size).map(lambda t: Polynomial(RING, t))


def assert_clean(p):
    assert Polynomial(p.variables, p.terms) == p
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == len(p.variables) for e in p.terms)


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), st.sampled_from((0, 1, -3, Fraction(0), Fraction(2, 3))))
def test_arithmetic_results_are_clean(p, q, scalar):
    for result in (p + q, p + (-p), p - q, p - p, -p, p * q, p * (-p), p * scalar, scalar * p, p + scalar):
        assert_clean(result)
    assert (p * 0).is_zero() and (0 * p).is_zero()


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.integers(0, 3))
def test_ring_movement_results_are_clean(p, keep):
    target = RING[:keep]
    assert_clean(p.restrict(target))
    assert_clean(p.extend(RING + ("d",)))


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.lists(polynomials(3), max_size=3), st.sampled_from((GREVLEX, LEX)))
def test_division_results_are_clean(f, divisors, order):
    quotients, remainder = divide(f, divisors, order)
    for q in quotients:
        assert_clean(q)
    assert_clean(remainder)
    total = remainder
    for q, g in zip(quotients, divisors):
        total = total + q * g
    assert total == f
