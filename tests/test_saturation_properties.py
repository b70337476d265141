"""The unstable locus by Fourier-Motzkin elimination against the subset scan
of positive circuits, on random presentations of torus rank 1 to 4 with
repeated and zero weights and random subtori, and its independence from
the basis chosen for the subtorus."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabred import GradedCdga, GradedVariable, SubtorusBasis, saturation_ideal
from stabred.intlinalg import hermite_rows

from helpers import positive_circuits_by_subsets, strings
from test_canonicity import unimodular


@st.composite
def presentations_with_subtori(draw):
    """Up to 8 variables whose weights repeat from a small pool, which may
    hold the zero weight, and an independent subtorus of rank 1 to r."""
    rank = draw(st.integers(1, 4))
    weight = st.tuples(*(st.integers(-2, 2) for _ in range(rank)))
    pool = draw(st.lists(weight, min_size=1, max_size=5))
    if draw(st.booleans()):
        pool.append((0,) * rank)
    n = draw(st.integers(1, 8))
    ring = tuple(GradedVariable(f"x{i}", draw(st.sampled_from(pool))) for i in range(n))
    vectors = draw(st.lists(weight, min_size=1, max_size=rank))
    assume(len(hermite_rows(vectors)) == len(vectors))
    return GradedCdga(rank, ring), SubtorusBasis(rank, tuple(vectors))


@settings(max_examples=200, deadline=None)
@given(case=presentations_with_subtori(), data=st.data())
def test_the_elimination_finds_the_circuits_of_the_subset_scan(case, data):
    x, h = case
    generators = strings(saturation_ideal(x, h).generators)
    assert generators == strings(positive_circuits_by_subsets(x, h).generators)
    # the same subtorus on another basis: its vectors permuted, negated and
    # recombined by a unimodular matrix
    vectors = data.draw(st.permutations(h.vectors), label="order")
    u, _ = data.draw(unimodular(h.rank), label="U")
    rebased = SubtorusBasis(
        x.torus_rank,
        tuple(tuple(sum(c * v[a] for c, v in zip(row, vectors)) for a in range(x.torus_rank)) for row in u),
    )
    assert strings(saturation_ideal(x, rebased).generators) == generators
