from dataclasses import replace
from fractions import Fraction

import pytest

from stabred import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Ideal,
    InvalidPresentation,
    SubtorusBasis,
    blowup_charts,
    classical_truncation,
    dagger_check,
    fixed_locus,
    from_invariant_function,
    load_scene,
    saturation_ideal,
    stabilizer_stratification,
    tangent_complex_ranks,
    validate_presentation,
    weight_split,
)
from stabred.cdga import homogeneous_weight, is_fixed_weight, pairing, require_valid
from stabred.poly import Polynomial
from stabred.report import cdga_document

from helpers import FULL1, ideal_of, poly, refuse_buchberger, strings

V = ("x", "y")
HYPERBOLIC = (GradedVariable("x", (1,)), GradedVariable("y", (-1,)))


def darboux():
    return load_scene("scenes/darboux-x2y2.json")


def xy_scene():
    return load_scene("scenes/xy.json")


# -- validation --------------------------------------------------------------

def test_valid_scenes_pass():
    for path in ("scenes/darboux-x2y2.json", "scenes/xy.json", "scenes/a2-hyperbolic.json"):
        assert validate_presentation(load_scene(path)).ok


def test_weight_length_violation():
    x = GradedCdga(2, (GradedVariable("x", (1,)),))
    report = validate_presentation(x)
    assert not report.ok
    assert report.violations[0].kind == "weight"
    assert "x" in report.violations[0].message


def test_duplicate_name_violation():
    x = GradedCdga(
        1,
        HYPERBOLIC,
        (Generator1("x", (0,), poly("x*y", V)),),
    )
    report = validate_presentation(x)
    assert any(v.kind == "name" for v in report.violations)


def test_non_homogeneous_differential():
    x = GradedCdga(1, HYPERBOLIC, (Generator1("w", (0,), poly("x*y + x", V)),))
    report = validate_presentation(x)
    assert [v.kind for v in report.violations] == ["homogeneity"]
    assert "w" in report.violations[0].subject


def test_weight_mismatch():
    x = GradedCdga(1, HYPERBOLIC, (Generator1("w", (3,), poly("x*y", V)),))
    report = validate_presentation(x)
    assert report.violations[0].kind == "homogeneity"
    assert "(3,)" in report.violations[0].message


def test_wrong_ring_differential():
    stray = poly("a", ("a",))
    x = GradedCdga(1, HYPERBOLIC, (Generator1("w", (0,), stray),))
    report = validate_presentation(x)
    assert report.violations[0].kind == "ring"


def test_gens2_unknown_target():
    x = GradedCdga(
        1,
        HYPERBOLIC,
        (Generator1("w", (0,), poly("x*y", V)),),
        (Generator2("e", (0,), (("missing", poly("x", V)),)),),
    )
    report = validate_presentation(x)
    assert any(v.kind == "target" and "missing" in v.message for v in report.violations)


def test_gens2_composite_must_vanish():
    # d(e) = x*w with d(w) = x*y gives d^2(e) = x^2*y, nonzero
    x = GradedCdga(
        1,
        HYPERBOLIC,
        (Generator1("w", (0,), poly("x*y", V)),),
        (Generator2("e", (1,), (("w", poly("x", V)),)),),
    )
    report = validate_presentation(x)
    kinds = {v.kind for v in report.violations}
    assert "d_squared" in kinds
    offending = next(v for v in report.violations if v.kind == "d_squared")
    assert offending.subject == "e"
    assert "x^2*y" in offending.message


def test_excluded_ring_checked():
    x = GradedCdga(1, HYPERBOLIC, excluded=Ideal(("z",), (poly("z", ("z",)),)))
    report = validate_presentation(x)
    assert any(v.kind == "ring" and v.subject == "excluded" for v in report.violations)


def test_a_non_monomial_exclusion_is_named():
    x = GradedCdga(1, HYPERBOLIC, excluded=ideal_of(V, "x", "x*y - 1", "2*y^3"))
    report = validate_presentation(x)
    assert [(v.kind, v.subject, v.message) for v in report.violations] == [
        ("monomial", "excluded", "excluded generator x*y - 1 is not a monomial")
    ]
    with pytest.raises(InvalidPresentation, match="not a monomial"):
        require_valid(x)


def test_require_valid_raises_with_subject():
    x = GradedCdga(1, HYPERBOLIC, (Generator1("w", (3,), poly("x*y", V)),))
    with pytest.raises(InvalidPresentation, match="w"):
        require_valid(x)


def test_negative_torus_rank_rejected():
    report = validate_presentation(GradedCdga(-1, ()))
    assert report.violations[0].kind == "torus_rank"


# -- weights and splits -------------------------------------------------------

def test_pairing_and_fixedness():
    assert pairing((2, -1), (1, 1)) == 1
    assert is_fixed_weight((0, 0), SubtorusBasis.full(2))
    assert not is_fixed_weight((1, 0), SubtorusBasis.full(2))
    h = SubtorusBasis(2, ((1, 1),))
    assert is_fixed_weight((1, -1), h)


def test_homogeneous_weight():
    weights = ((1,), (-1,))
    ok, w = homogeneous_weight(poly("x^2*y", V), weights, 1)
    assert ok and w == (1,)
    ok, _ = homogeneous_weight(poly("x + y", V), weights, 1)
    assert not ok
    ok, w = homogeneous_weight(Polynomial.zero(V), weights, 1)
    assert ok and w is None
    # a constant has the zero weight of the torus rank, with or without variables
    assert homogeneous_weight(poly("3", V), weights, 1) == (True, (0,))
    assert homogeneous_weight(Polynomial.constant((), 3), (), 2) == (True, (0, 0))


def test_weight_split():
    x = darboux()
    split = weight_split(x, FULL1)
    assert split.fixed == () and split.moving == ("x", "y")
    trivial = SubtorusBasis(1, ())
    split = weight_split(x, trivial)
    assert split.fixed == ("x", "y") and split.moving == ()


@pytest.mark.parametrize(
    "routine", [weight_split, saturation_ideal, dagger_check, fixed_locus, blowup_charts]
)
def test_a_subtorus_of_another_torus_rank_is_refused(routine):
    # a rank-1 subtorus would pair with the first coordinate alone and take
    # a*b for invariant, which it is not on the rank-2 torus
    x = GradedCdga(2, (GradedVariable("a", (1, 5)), GradedVariable("b", (-1, 3))))
    with pytest.raises(ValueError, match="subtorus does not match the torus rank"):
        routine(x, FULL1)


def test_subtorus_basis_validation():
    assert SubtorusBasis.full(2).vectors == ((1, 0), (0, 1))
    assert SubtorusBasis(1, ((2,),)).rank == 1
    with pytest.raises(ValueError):
        SubtorusBasis(1, ((1,), (2,)))  # dependent vectors
    with pytest.raises(ValueError):
        SubtorusBasis(2, ((1,),))  # wrong length


# -- truncation and fixed locus ----------------------------------------------

def test_classical_truncation():
    x = darboux()
    assert ideal_of(V, "2*x*y^2", "2*x^2*y") == classical_truncation(x)
    assert classical_truncation(load_scene("scenes/a2-hyperbolic.json")).is_zero()


def test_classical_truncation_is_built_once_per_presentation():
    x = darboux()
    truncation = classical_truncation(x)
    assert classical_truncation(x) is truncation
    assert truncation.groebner() is classical_truncation(x).groebner()
    # a new presentation, even an equal one, builds its own
    assert classical_truncation(replace(x)) is not truncation


def test_truncation_ignores_gens2():
    with_pair = darboux()
    without = GradedCdga(1, with_pair.ring_vars, with_pair.gens1)
    assert classical_truncation(with_pair) == classical_truncation(without)


def test_fixed_locus_of_xy_scene():
    cut = fixed_locus(xy_scene(), FULL1)
    assert cut.ring_vars == ()
    assert len(cut.gens1) == 1
    assert cut.gens1[0].name == "w"
    assert cut.gens1[0].weight == (0,)
    assert cut.gens1[0].differential.is_zero()
    assert cut.torus_rank == 1
    assert validate_presentation(cut).ok


def test_fixed_locus_keeps_fixed_directions():
    variables = (
        GradedVariable("x", (1,)),
        GradedVariable("z", (0,)),
    )
    ring = ("x", "z")
    x = GradedCdga(
        1,
        variables,
        (
            Generator1("w1", (1,), poly("x*z", ring)),
            Generator1("w2", (0,), poly("z^2", ring)),
        ),
        excluded=ideal_of(ring, "x", "z"),
    )
    cut = fixed_locus(x, FULL1)
    assert tuple(v.name for v in cut.ring_vars) == ("z",)
    # the moving generator w1 is dropped, the fixed one survives restricted
    assert tuple(g.name for g in cut.gens1) == ("w2",)
    assert cut.gens1[0].differential.to_string() == "z^2"
    # the excluded generator in the moving x vanishes on the fixed locus
    assert strings(cut.excluded.generators) == ("z",)


def test_fixed_locus_keeps_the_minimal_monomials_of_its_exclusion(monkeypatch):
    refuse_buchberger(monkeypatch)
    variables = (GradedVariable("x", (1,)), GradedVariable("z", (0,)), GradedVariable("w", (0,)))
    ring = ("x", "z", "w")
    x = GradedCdga(1, variables, excluded=ideal_of(ring, "z", "z*w"))
    cut = fixed_locus(x, FULL1)
    assert strings(cut.excluded.generators) == ("z",)
    assert cut.excluded.groebner() == cut.excluded.generators


def test_fixed_locus_inside_the_removed_locus_keeps_no_point():
    # the full-torus fixed locus of the plane is the origin, which lies on
    # the removed axis x = 0
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=ideal_of(V, "x"))
    cut = fixed_locus(x, FULL1)
    assert cut.excluded.is_zero()
    report = stabilizer_stratification(cut)
    assert not any(s.nonempty for s in report.strata)
    assert cdga_document(cut)["excluded"] == ["1"]


def test_fixed_locus_off_the_removed_locus_keeps_every_point():
    # a removed locus cut out by monomials misses the origin only when it
    # is empty, so the fixed origin survives exactly when the parent
    # removed nothing
    x = load_scene("scenes/a2-hyperbolic.json")
    cut = fixed_locus(x, FULL1)
    assert cut.excluded.is_unit()
    report = stabilizer_stratification(cut)
    assert [s.support for s in report.strata if s.nonempty] == [()]
    assert cdga_document(cut)["excluded"] == []


def test_fixed_locus_prunes_gens2_through_moving_targets():
    x = darboux()
    cut = fixed_locus(x, FULL1)
    # both targets of e are moving, so e survives with an empty differential
    assert len(cut.gens2) == 1
    assert cut.gens2[0].differential == ()
    assert validate_presentation(cut).ok


def test_fixed_locus_is_idempotent():
    for path in ("scenes/darboux-x2y2.json", "scenes/xy.json"):
        cut = fixed_locus(load_scene(path), FULL1)
        assert fixed_locus(cut, FULL1) == cut


def test_fixed_locus_validates_input():
    bad = GradedCdga(1, HYPERBOLIC, (Generator1("w", (3,), poly("x*y", V)),))
    with pytest.raises(InvalidPresentation):
        fixed_locus(bad, FULL1)


# -- derived critical loci -----------------------------------------------------

def test_from_invariant_function_matches_darboux_scene():
    f = poly("x^2*y^2", V)
    built = from_invariant_function(HYPERBOLIC, 1, f)
    assert built == darboux()


def test_from_invariant_function_names_avoid_collisions():
    variables = (GradedVariable("x", (1,)), GradedVariable("w_x", (-1,)))
    ring = ("x", "w_x")
    built = from_invariant_function(variables, 1, poly("x*w_x", ring))
    names = tuple(g.name for g in built.gens1)
    assert len(set(names)) == 2
    assert not set(names) & {"x", "w_x"}
    assert validate_presentation(built).ok
    # a colliding name takes the first free numeric suffix, as every other
    # fresh name does (ideal.fresh_name)
    assert names == ("w_x0", "w_w_x")
    assert tuple(g.name for g in built.gens2) == ("e_1",)
    variables = (GradedVariable("x", (1,)), GradedVariable("e_1", (-1,)))
    built = from_invariant_function(variables, 1, poly("x*e_1", ("x", "e_1")))
    assert tuple(g.name for g in built.gens1) == ("w_x", "w_e_1")
    assert tuple(g.name for g in built.gens2) == ("e_10",)
    assert validate_presentation(built).ok


def test_from_invariant_function_requires_invariance():
    with pytest.raises(ValueError, match="invariant"):
        from_invariant_function(HYPERBOLIC, 1, poly("x^2*y", V))


@pytest.mark.parametrize("weight", [(1,), (1, 0, 5)], ids=["short", "long"])
def test_from_invariant_function_refuses_weights_of_the_wrong_length(weight):
    variables = (GradedVariable("x", weight), GradedVariable("y", (-1, 0)))
    with pytest.raises(ValueError, match="weight of length"):
        from_invariant_function(variables, 2, poly("x*y", V))


def test_tangent_complex_ranks():
    ranks = tangent_complex_ranks(darboux())
    assert (ranks.ring_rank, ranks.gens1_rank, ranks.gens2_rank) == (2, 2, 1)
    assert ranks.vdim == 0
    assert tangent_complex_ranks(load_scene("scenes/a2-hyperbolic.json")).vdim == 1


def test_generator2_coefficient_lookup():
    e = darboux().gens2[0]
    assert e.coefficient("w_x").to_string() == "x"
    assert e.coefficient("w_y").to_string() == "-y"
    assert e.coefficient("nope") is None
