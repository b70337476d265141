"""The walk over the flat lattice against the rank-closure oracle and the
walk over every flat on random presentations of torus rank 1 to 4, with
repeated and zero weights, monomial exclusions and unit relations."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import GradedCdga, GradedVariable, Generator1, Polynomial, monomial_ideal, stabilizer_stratification

from helpers import bottom_up_stratification
from test_torus import _check_flats_against_closure, counted_stratification


@st.composite
def presentations(draw):
    """Up to 7 variables whose weights repeat from a small pool, which may
    hold the zero weight, an optional monomial relation, and a removed
    locus of up to 3 monomials."""
    rank = draw(st.integers(1, 4))
    weight = st.tuples(*(st.integers(-2, 2) for _ in range(rank)))
    pool = draw(st.lists(weight, min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append((0,) * rank)
    n = draw(st.integers(1, 7))
    ring = tuple(GradedVariable(f"x{i}", draw(st.sampled_from(pool))) for i in range(n))
    names = tuple(v.name for v in ring)
    squarefree = st.tuples(*(st.integers(0, 1) for _ in names))
    gens1 = ()
    if draw(st.booleans()):
        e = draw(squarefree)
        w = tuple(sum(k * v.weight[a] for k, v in zip(e, ring)) for a in range(rank))
        gens1 = (Generator1("w", w, Polynomial.monomial(names, e)),)
    excluded = monomial_ideal(names, draw(st.lists(squarefree, min_size=1, max_size=3)))
    return GradedCdga(rank, ring, gens1, excluded=excluded)


@st.composite
def unit_presentations(draw):
    """A draw of ``presentations`` with the relation 1 added, which leaves
    no point."""
    x = draw(presentations())
    unit = Generator1("u", (0,) * x.torus_rank, Polynomial.constant(x.var_names, 1))
    return x._replace(gens1=x.gens1 + (unit,))


mixed_presentations = st.one_of(presentations(), unit_presentations())


@settings(max_examples=200, deadline=None)
@given(mixed_presentations)
def test_the_walk_tests_each_flat_once_in_the_closure_order(x):
    report, calls, tested = counted_stratification(x)
    _check_flats_against_closure(x, report, tested)
    # one kernel per flat tested, and one per removed generator to find the
    # flat the walk starts from, which may repeat another's or lie above
    # the rank the walk stops at
    assert len(tested) <= calls["kernel"] <= len(tested) + len(x.excluded.generators)
    assert calls["subtorus"] == len(report.witnesses)


@settings(max_examples=300, deadline=None)
@given(mixed_presentations)
def test_the_walk_from_the_removed_generators_equals_the_walk_over_every_flat(x):
    assert stabilizer_stratification(x) == bottom_up_stratification(x)
