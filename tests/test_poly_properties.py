"""Polynomial arithmetic builds its results from terms that are clean by
construction, skipping the public constructor's checks; every result must
still be what the checked constructor makes of its terms.  A clean
coefficient is in canonical form: an ``int`` when it is integral, otherwise
a ``Fraction`` with denominator greater than 1.  The leads ``leading``
keeps on a polynomial, and the flat order keys, are checked against the
nested keys of ``helpers.reference_key``.  The exponent and weight kernels,
which loop in C, are checked against plain index loops."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred.cdga import pairing
from stabred.groebner import divide, normal_form, s_polynomial
from stabred.poly import GREVLEX, LEX, ElimOrder, Polynomial, coeff_div, monomial_divides, monomial_lcm

from helpers import is_canonical, reference_key

RING = ("a", "b", "c")
# coefficients that cancel often, so sums and products hit zero terms
COEFFS = st.sampled_from((Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)))


def polynomials(max_size=5):
    exponents = st.tuples(*(st.integers(0, 2) for _ in RING))
    return st.dictionaries(exponents, COEFFS, max_size=max_size).map(lambda t: Polynomial(RING, t))


def nonzero():
    return polynomials().filter(lambda p: not p.is_zero())


def assert_clean(p):
    assert Polynomial(p.variables, p.terms) == p
    assert all(is_canonical(c) for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == len(p.variables) for e in p.terms)


def as_fractions(p):
    """The same polynomial with every coefficient a ``Fraction``: the
    representation the kernel used before integers were kept as ``int``."""
    return Polynomial._from_clean(p.variables, {e: Fraction(c) for e, c in p.terms.items()})


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


RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS.filter(bool))
def test_coeff_div_is_exact_and_canonical(a, b):
    q = coeff_div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is int or (type(q) is Fraction and q.denominator > 1)


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.lists(polynomials(3), max_size=3), st.sampled_from((GREVLEX, LEX)))
def test_division_matches_fraction_typed_inputs(f, divisors, order):
    quotients, remainder = divide(f, divisors, order)
    old_quotients, old_remainder = divide(as_fractions(f), [as_fractions(g) for g in divisors], order)
    assert quotients == old_quotients and remainder == old_remainder
    assert f.monic(order) == as_fractions(f).monic(order)
    assert_clean(f.monic(order))


@settings(max_examples=200, deadline=None)
@given(nonzero(), nonzero(), st.sampled_from((GREVLEX, LEX)))
def test_s_polynomial_matches_fraction_typed_inputs(f, g, order):
    s = s_polynomial(f, g, order)
    assert s == s_polynomial(as_fractions(f), as_fractions(g), order)
    assert_clean(s)


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.sampled_from((Fraction(2), Fraction(-6, 3), Fraction(2, 3), Fraction(3, 2))))
def test_integral_fractions_are_stored_as_ints(p, scalar):
    assert_clean(Polynomial(RING, {e: Fraction(c) for e, c in p.terms.items()}))
    assert_clean(Polynomial.constant(RING, scalar))
    for result in (p * scalar, p * scalar * scalar, p + scalar, p * Polynomial.constant(RING, scalar)):
        assert_clean(result)


def orders(variables):
    """Lex, grevlex, and elimination orders whose fronts are any subsets of
    ``variables``, in any order."""
    fronts = st.lists(st.sampled_from(variables), unique=True) if variables else st.just([])
    return st.one_of(st.just(LEX), st.just(GREVLEX), fronts.map(lambda f: ElimOrder(tuple(f))))


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.lists(polynomials(3), max_size=4), orders(RING))
def test_normal_form_is_the_remainder_of_divide(f, divisors, order):
    # the two share one division loop; only ``divide`` builds quotients
    remainder = normal_form(f, divisors, order)
    assert remainder == divide(f, divisors, order)[1]
    assert_clean(remainder)


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), st.data())
def test_the_cached_lead_is_never_stale(p, q, data):
    # one object answers ``leading`` for interleaved orders, and each answer
    # is a fresh ``max`` under the key the kernel used before it cached
    kept = data.draw(st.lists(st.sampled_from(RING), unique=True))
    built = [p + q, p * q, p.restrict(kept), p.extend(RING + ("d",))]
    # ``monic`` hands its result the lead it already knows
    built += [f.monic(data.draw(orders(f.variables))) for f in built]
    for f in built:
        if f.is_zero():
            continue
        for order in data.draw(st.lists(orders(f.variables), min_size=1, max_size=6)):
            exps = max(f.terms, key=reference_key(order, f.variables))
            assert f.leading(order) == (exps, f.terms[exps])


@pytest.mark.parametrize("front_size", ("one", "several"))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_order_keys_sort_as_the_reference_keys(front_size, data):
    # the flat keys order exponent tuples exactly as the nested ones did,
    # wherever the front variables sit in the ring
    width = data.draw(st.integers(1 if front_size == "one" else 2, 5))
    ring = tuple(f"v{i}" for i in range(width))
    size = 1 if front_size == "one" else data.draw(st.integers(2, width))
    front = tuple(data.draw(st.permutations(ring))[:size])
    exponents = data.draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in ring)), min_size=2, max_size=8))
    for order in (ElimOrder(front), GREVLEX):
        key, reference = order.key(ring), reference_key(order, ring)
        assert sorted(exponents, key=key) == sorted(exponents, key=reference)
        for a in exponents:
            for b in exponents:
                assert (key(a) < key(b)) == (reference(a) < reference(b))


@st.composite
def equal_width_pairs(draw, low, high):
    """Two integer tuples of one width, 0 to 5, with entries in [low, high]."""
    width = draw(st.integers(0, 5))
    entries = st.tuples(*(st.integers(low, high) for _ in range(width)))
    return draw(entries), draw(entries)


@settings(max_examples=300, deadline=None)
@given(equal_width_pairs(0, 4))
def test_monomial_kernels_match_the_naive_loops(pair):
    a, b = pair
    assert monomial_divides(a, b) is all(a[i] <= b[i] for i in range(len(a)))
    assert monomial_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(len(a)))


@settings(max_examples=300, deadline=None)
@given(equal_width_pairs(-9, 9))
def test_pairing_matches_the_naive_loop(pair):
    weight, vector = pair
    assert pairing(weight, vector) == sum(weight[i] * vector[i] for i in range(len(weight)))
