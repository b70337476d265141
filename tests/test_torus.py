import pytest

from stabred import (
    DegreeCapReached,
    GradedCdga,
    GradedVariable,
    Generator1,
    Ideal,
    NoPositiveDimensionalStabilizer,
    SubtorusBasis,
    TooManyVariables,
    ideal_equal,
    load_scene,
    saturation_ideal,
    stabilizer_stratification,
    witness_subtori,
)

from helpers import FULL1, ideal_of, poly, strings

V = ("x", "y")


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
        saturation_ideal(x, h, degree_cap=2)
    assert not saturation_ideal(x, h, degree_cap=3).is_zero()


def test_saturation_ideal_no_invariants():
    x = GradedCdga(2, (GradedVariable("x", (1, 0)), GradedVariable("y", (-1, -1))))
    assert saturation_ideal(x, SubtorusBasis.full(2)).is_zero()
