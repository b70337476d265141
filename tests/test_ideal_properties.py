"""Properties of ideal operations on small random inputs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import Ideal, ideal_equal, saturate
from stabred.poly import Polynomial

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
    substituted = Ideal(ring, tuple(g.substitute(one, ring) for g in ideal.generators))
    assert ideal_equal(saturate(ideal, Polynomial.variable(ring, v)), substituted)
