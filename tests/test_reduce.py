import random
from dataclasses import replace
from fractions import Fraction

import pytest

from stabred import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Ideal,
    StrictDecreaseViolation,
    iter_leaves,
    load_scene,
    obstruction_report,
    stabilizer_reduce,
    tree_depth,
)
from stabred import reduce
from stabred.poly import Polynomial
from stabred.reduce import _delta2_generic_rank

from helpers import poly, rational_rank, strings
from test_blowup import synthetic_pair_scene
from test_torus import RANK2, SKEW, STEEP, critical

V = ("x", "y")


def test_hyperbolic_plane_tree():
    tree = stabilizer_reduce(load_scene("scenes/a2-hyperbolic.json"))
    assert tree.id == "root"
    assert tree.stabilizer.max_dim == 1
    assert tree_depth(tree) == 1
    assert [node.id for _, node in tree.children] == ["root/x", "root/y"]
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2
    for chart, node in tree.children:
        assert node.stabilizer.max_dim == 0
        assert node.leaf_report.dm
        assert node.leaf_report.dagger
        assert node.leaf_report.quasi_smooth
        assert node.leaf_report.vdim == 1
        assert node.leaf_report.e_ranks == (1, 0)
    assert strings(tree.children[0][1].cdga.excluded.generators) == ("u_y",)
    assert strings(tree.children[1][1].cdga.excluded.generators) == ("u_x",)


def test_darboux_tree():
    tree = stabilizer_reduce(load_scene("scenes/darboux-x2y2.json"))
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2 and tree_depth(tree) == 1
    for node in leaves:
        report = node.leaf_report
        assert report.dagger
        assert report.vdim == 0
        assert report.e_ranks == (1, 1)
        assert not report.quasi_smooth
        assert report.dm
        assert not report.fully_unstable


def test_xy_scene_tree():
    tree = stabilizer_reduce(load_scene("scenes/xy.json"))
    leaves = list(iter_leaves(tree))
    assert [n.id for n in leaves] == ["root/x", "root/y"]
    for node in leaves:
        assert node.leaf_report.vdim == 0
        assert node.leaf_report.e_ranks == (1, 1)
        assert node.leaf_report.quasi_smooth


def test_fully_unstable_charts_become_dead_leaves():
    tree = stabilizer_reduce(load_scene("scenes/a2-positive.json"))
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2
    for node in leaves:
        assert node.leaf_report.fully_unstable
        assert node.leaf_report.e_ranks is None
        assert node.stabilizer.max_dim == 0
        assert node.cdga.excluded.is_zero()  # every point removed


def test_synthetic_pair_tree_keeps_derived_structure():
    tree = stabilizer_reduce(synthetic_pair_scene())
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2
    for node in leaves:
        assert len(node.cdga.gens2) == 1
        assert node.leaf_report.dagger
        assert node.leaf_report.vdim == 0
        assert node.leaf_report.e_ranks == (1, 1)


def test_rank_zero_torus_is_a_single_leaf():
    x = GradedCdga(0, (GradedVariable("x", ()),), (Generator1("w", (), poly("x^2", ("x",))),))
    tree = stabilizer_reduce(x)
    assert tree.children == ()
    assert tree.leaf_report is not None
    assert tree.leaf_report.dm


@pytest.mark.parametrize(
    "variables, text, k",
    [
        (RANK2, "a^2*b^2 + c*d", 2),
        (RANK2, "a*b + c*d - 1", 2),
        (SKEW, "a*b + c*d", 2),
        (RANK2, "a*b*c*d + a*b", 2),
        (RANK2 + (GradedVariable("e", (1, 1)), GradedVariable("f", (-1, -1))), "a*b + c*d + e*f", 4),
        (STEEP, "x^12*y + z*w", 2),
        (
            tuple(GradedVariable(f"{v}{i}", (s,)) for i in (1, 2, 3) for v, s in (("x", 1), ("y", -1))),
            "x1*y1 + x2*y2 + x3*y3",
            5,
        ),
    ],
    ids=["a2b2+cd", "ab+cd-1", "ab+cd-skew", "abcd+ab", "ab+cd+ef", "steep", "x1y1+x2y2+x3y3"],
)
def test_critical_locus_leaves_are_minus_one_shifted_symplectic(variables, text, k):
    # a derived critical locus is (-1)-shifted symplectic: its two-term
    # complex is self-dual, so every reduced chart has vdim 0 and ranks (k, k)
    for node in iter_leaves(stabilizer_reduce(critical(variables, text))):
        assert node.leaf_report.vdim == 0, node.id
        assert node.leaf_report.e_ranks == (k, k), node.id


def test_strict_decrease_along_edges():
    for path in ("scenes/a2-hyperbolic.json", "scenes/darboux-x2y2.json", "scenes/xy.json"):
        tree = stabilizer_reduce(load_scene(path))
        stack = [tree]
        while stack:
            node = stack.pop()
            for _, child in node.children:
                assert child.stabilizer.max_dim < node.stabilizer.max_dim
                stack.append(child)


def test_quasi_smooth_scenes_stay_quasi_smooth():
    for path in ("scenes/a2-hyperbolic.json", "scenes/xy.json", "scenes/a2-positive.json"):
        scene = load_scene(path)
        assert obstruction_report(scene).quasi_smooth
        for node in iter_leaves(stabilizer_reduce(scene)):
            assert node.leaf_report.quasi_smooth


def test_a_chart_that_keeps_max_dim_is_refused_before_descending(monkeypatch):
    # every chart hands back its parent's presentation, so no edge lowers
    # max_dim; the first edge must be refused before its child is reduced
    kirwan_charts, stratify = reduce.kirwan_charts, reduce.stabilizer_stratification
    stratified = []

    def unchanged_charts(x, *args, **kwargs):
        return tuple(replace(chart, cdga=x) for chart in kirwan_charts(x, *args, **kwargs))

    def recording(x):
        stratified.append(x)
        return stratify(x)

    monkeypatch.setattr(reduce, "kirwan_charts", unchanged_charts)
    monkeypatch.setattr(reduce, "stabilizer_stratification", recording)
    x = load_scene("scenes/a2-hyperbolic.json")
    with pytest.raises(StrictDecreaseViolation) as caught:
        stabilizer_reduce(x)
    assert str(caught.value).startswith(
        "stabilizer dimension failed to drop from 1 at 'root' to 1 at 'root/x' ("
    )
    assert stratified == [x, x]


def test_reduction_is_deterministic():
    from stabred.report import canonical_json, reduction_document

    scene = load_scene("scenes/darboux-x2y2.json")
    first = canonical_json(reduction_document(stabilizer_reduce(scene)))
    second = canonical_json(reduction_document(stabilizer_reduce(scene)))
    assert first == second


# -- obstruction reports -------------------------------------------------------

def test_obstruction_report_on_darboux():
    report = obstruction_report(load_scene("scenes/darboux-x2y2.json"))
    assert report.vdim == 0
    assert report.e_ranks == (1, 1)
    assert report.dagger and not report.quasi_smooth


def test_obstruction_report_without_dagger_omits_ranks():
    gens1 = (
        Generator1("w1", (2,), poly("x^2", V)),
        Generator1("w2", (2,), poly("x^2", V)),
    )
    gens2 = (Generator2("e", (2,), (("w1", poly("1", V)), ("w2", poly("-1", V)))),)
    hyperbolic = (GradedVariable("x", (1,)), GradedVariable("y", (-1,)))
    x = GradedCdga(1, hyperbolic, gens1, gens2)
    report = obstruction_report(x)
    assert not report.dagger
    assert report.e_ranks is None
    assert report.vdim == 0


def test_obstruction_report_fully_unstable_override():
    base = load_scene("scenes/a2-hyperbolic.json")
    # the zero ideal removes every point
    x = replace(base, excluded=Ideal.zero(base.var_names))
    report = obstruction_report(x)
    assert report.fully_unstable
    assert report.e_ranks is None


def test_generic_rank_is_exact_where_every_small_integer_point_is_special():
    # the coefficient x*(z-1)*(z+1)*...*(z-9)*(z+9) vanishes wherever z is a
    # nonzero integer in [-9, 9], yet is a nonzero polynomial: rank 1
    ring = ("x", "z")
    z = poly("z", ring)
    coeff = poly("x", ring)
    for c in range(-9, 10):
        if c:
            coeff = coeff * (z - Polynomial.constant(ring, c))
    x = GradedCdga(
        1,
        (GradedVariable("x", (1,)), GradedVariable("z", (0,))),
        (Generator1("w1", (1,), poly("x", ring)), Generator1("w2", (1,), poly("x", ring))),
        (Generator2("e", (2,), (("w1", coeff), ("w2", -coeff))),),
    )
    report = obstruction_report(x)
    assert report.dagger
    assert report.e_ranks == (1, 1)


def _coefficient_scene(rows, ring):
    """A presentation that only carries a degree-2 coefficient matrix."""
    variables = tuple(GradedVariable(n, (0,)) for n in ring)
    gens1 = tuple(Generator1(f"w{j}", (0,), Polynomial.zero(ring)) for j in range(len(rows[0])))
    gens2 = tuple(
        Generator2(f"e{i}", (0,), tuple((f"w{j}", c) for j, c in enumerate(row) if not c.is_zero()))
        for i, row in enumerate(rows)
    )
    return GradedCdga(1, variables, gens1, gens2)


def test_generic_rank_matches_evaluation_on_random_matrices():
    # The rank at a point never exceeds the generic rank, and reaches it off
    # a proper closed set; rows built as combinations of others force drops.
    rng = random.Random(7)
    ring = ("a", "b")
    coeffs = (-2, -1, 1, 2)

    def entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(rng.choice(coeffs))
        return Polynomial(ring, terms)

    for _ in range(30):
        height, width = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[entry() for _ in range(width)] for _ in range(height)]
        if height >= 3:
            p, q = entry(), entry()
            rows[2] = [p * a + q * b for a, b in zip(rows[0], rows[1])]
        exact = _delta2_generic_rank(_coefficient_scene(rows, ring))
        points = [{"a": Fraction(rng.randint(-50, 50)), "b": Fraction(rng.randint(-50, 50))} for _ in range(4)]
        sampled = max(rational_rank([[c.evaluate(pt) for c in row] for row in rows]) for pt in points)
        assert exact == sampled


def test_quasi_smooth_check():
    assert obstruction_report(load_scene("scenes/xy.json")).quasi_smooth
    assert not obstruction_report(load_scene("scenes/darboux-x2y2.json")).quasi_smooth
