import itertools

import pytest

from stabred import (
    DegreeCapReached,
    GradedCdga,
    GradedVariable,
    Generator1,
    Ideal,
    NoPositiveDimensionalStabilizer,
    Polynomial,
    SceneOptions,
    SubtorusBasis,
    TooManyVariables,
    classical_truncation,
    from_invariant_function,
    ideal_equal,
    load_scene,
    saturate,
    saturation_ideal,
    stabilizer_reduce,
    stabilizer_stratification,
    tree_depth,
    witness_subtori,
)
from stabred.torus import _support_nonempty

from helpers import FULL1, build_corpus, ideal_of, poly, strings

V = ("x", "y")
RANK2 = (
    GradedVariable("a", (1, 0)),
    GradedVariable("b", (-1, 0)),
    GradedVariable("c", (0, 1)),
    GradedVariable("d", (0, -1)),
)


def rank2_critical(text):
    return from_invariant_function(RANK2, 2, poly(text, "abcd"))


def by_support(report):
    return {s.support: s for s in report.strata}


def test_stratification_of_xy_scene():
    report = stabilizer_stratification(load_scene("scenes/xy.json"))
    strata = by_support(report)
    assert set(strata) == {(), ("x",), ("y",), ("x", "y")}
    assert strata[()].stabilizer_dim == 1 and strata[()].nonempty
    assert strata[("x",)].stabilizer_dim == 0 and strata[("x",)].nonempty
    assert strata[("y",)].stabilizer_dim == 0 and strata[("y",)].nonempty
    # both coordinates nonzero is incompatible with x*y = 0
    assert not strata[("x", "y")].nonempty
    assert report.max_dim == 1
    assert report.maximal_support == ((),)


def test_stratification_of_smooth_plane():
    report = stabilizer_stratification(load_scene("scenes/a2-hyperbolic.json"))
    strata = by_support(report)
    assert all(s.nonempty for s in report.strata)
    assert strata[("x", "y")].stabilizer_dim == 0
    assert report.max_dim == 1
    assert report.maximal_support == ((),)


def test_stratification_respects_excluded_ideal():
    base = load_scene("scenes/xy.json")
    x = GradedCdga(
        base.torus_rank,
        base.ring_vars,
        base.gens1,
        excluded=ideal_of(V, "x", "y"),
    )
    report = stabilizer_stratification(x)
    strata = by_support(report)
    assert not strata[()].nonempty  # the origin is removed
    assert strata[("x",)].nonempty
    assert report.max_dim == 0
    with pytest.raises(NoPositiveDimensionalStabilizer):
        witness_subtori(x, report)


def test_unit_excluded_kills_every_stratum():
    base = load_scene("scenes/a2-hyperbolic.json")
    # removed = V(excluded), so the zero ideal removes every point
    x = GradedCdga(base.torus_rank, base.ring_vars, excluded=Ideal.zero(V))
    report = stabilizer_stratification(x)
    assert not any(s.nonempty for s in report.strata)
    assert report.max_dim == 0


def test_variable_cap():
    many = tuple(GradedVariable(f"v{i}", (1,)) for i in range(17))
    with pytest.raises(TooManyVariables):
        stabilizer_stratification(GradedCdga(1, many))


def test_witness_subtorus_is_full_lattice_at_the_origin():
    (witness,) = witness_subtori(
        load_scene("scenes/xy.json"),
        stabilizer_stratification(load_scene("scenes/xy.json")),
    )
    assert witness.vectors == ((1,),)


def test_witness_subtorus_canonical_kernel():
    # origin removed, so the maximal stratum is the punctured line x != 0
    x = GradedCdga(
        2,
        (GradedVariable("x", (1, 1)),),
        excluded=Ideal(("x",), (poly("x", ("x",)),)),
    )
    report = stabilizer_stratification(x)
    assert report.max_dim == 1
    assert report.maximal_support == (("x",),)
    (witness,) = witness_subtori(x, report)
    assert witness.vectors == ((1, -1),)


def test_witness_subtori_deduplicated():
    # x*y = 0 with the origin removed leaves the two punctured axes; their
    # proportional weight rows give the same kernel, reported once
    ring = ("x", "y")
    x = GradedCdga(
        2,
        (GradedVariable("x", (1, 1)), GradedVariable("y", (2, 2))),
        (Generator1("w", (3, 3), poly("x*y", ring)),),
        excluded=ideal_of(ring, "x", "y"),
    )
    report = stabilizer_stratification(x)
    assert report.max_dim == 1
    assert report.maximal_support == (("x",), ("y",))
    witnesses = witness_subtori(x, report)
    assert len(witnesses) == 1
    assert witnesses[0].vectors == ((1, -1),)


def test_saturation_ideal_rank_one():
    J = saturation_ideal(load_scene("scenes/xy.json"), FULL1)
    assert strings(J.groebner()) == ("x*y",)
    J = saturation_ideal(load_scene("scenes/xy2-x2y.json"), FULL1)
    assert strings(J.groebner()) == ("x*y",)


def test_saturation_ideal_one_sided_weights_is_zero():
    J = saturation_ideal(load_scene("scenes/a2-positive.json"), FULL1)
    assert J.is_zero()


def test_saturation_ideal_general_rank():
    ring = ("x", "y")
    x = GradedCdga(2, (GradedVariable("x", (1, 0)), GradedVariable("y", (-1, 0))))
    h = SubtorusBasis.full(2)
    J = saturation_ideal(x, h)
    assert strings(J.groebner()) == ("x*y",)
    # minimality: x^2*y^2 is dominated by x*y and must not be listed
    assert ideal_equal(J, ideal_of(ring, "x*y"))
    assert len(J.generators) == 1


def test_saturation_ideal_degree_cap():
    x = GradedCdga(2, (GradedVariable("x", (1, 0)), GradedVariable("y", (-1, 0))))
    h = SubtorusBasis.full(2)
    with pytest.raises(DegreeCapReached):
        saturation_ideal(x, h, SceneOptions(degree_cap=2))
    assert not saturation_ideal(x, h, SceneOptions(degree_cap=3)).is_zero()


def test_saturation_ideal_cap_below_the_first_invariants_raises():
    # a cap below 2 is refused by SceneOptions itself; cap 2 meets the
    # degree-2 invariants a*b and c*d at the cap
    x = rank2_critical("a*b + c*d - 1")
    h = SubtorusBasis.full(2)
    with pytest.raises(DegreeCapReached):
        saturation_ideal(x, h, SceneOptions(degree_cap=2))
    J = saturation_ideal(x, h, SceneOptions(degree_cap=12))
    assert strings(J.generators) == ("a*b", "c*d")


def test_saturation_ideal_no_invariants():
    x = GradedCdga(2, (GradedVariable("x", (1, 0)), GradedVariable("y", (-1, -1))))
    assert saturation_ideal(x, SubtorusBasis.full(2)).is_zero()


# -- stratum tests against the full-ring formulation ---------------------------


def _full_ring_nonempty(x, truncation, support):
    """Reference stratum test over the whole ring: the variables outside the
    support join the truncation as generators, then the ideal is saturated
    by the support product times each excluded generator."""
    names = x.var_names
    outside = tuple(Polynomial.variable(names, n) for n in names if n not in support)
    base = Ideal(names, truncation.generators + outside)
    prod = Polynomial.monomial(names, tuple(int(n in support) for n in names))
    return any(not saturate(base, prod * g).is_unit() for g in x.excluded.generators)


def _reduction_nodes(node):
    yield node
    for _, child in node.children:
        yield from _reduction_nodes(child)


def _check_strata_against_full_ring(tree):
    """Compare each stratum test of each node of a reduction tree with the
    oracle."""
    for node in _reduction_nodes(tree):
        y = node.cdga
        truncation = classical_truncation(y)
        for size in range(len(y.var_names) + 1):
            for support in itertools.combinations(y.var_names, size):
                expected = _full_ring_nonempty(y, truncation, support)
                assert _support_nonempty(y, truncation, support) == expected, (node.id, support)


def test_stratum_tests_match_the_full_ring_oracle_on_the_corpus():
    for x in build_corpus():
        _check_strata_against_full_ring(stabilizer_reduce(x))


def test_stratum_tests_match_the_full_ring_oracle_at_depth_two():
    tree = stabilizer_reduce(rank2_critical("a*b*c*d + a*b"))
    assert tree_depth(tree) == 2
    assert sum(not node.cdga.excluded.is_unit() for node in _reduction_nodes(tree)) == 8
    _check_strata_against_full_ring(tree)
