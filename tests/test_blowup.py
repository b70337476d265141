import json
from fractions import Fraction

import pytest

import stabred.ideal
from stabred import (
    DaggerViolation,
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Ideal,
    InvalidPresentation,
    NoCenter,
    StrictDecreaseViolation,
    SubtorusBasis,
    blowup_charts,
    classical_truncation,
    crosscheck_truncation,
    dagger_check,
    ideal_equal,
    intersect,
    kirwan_charts,
    load_scene,
    rees_presentation,
    saturate,
    saturation_ideal,
    stabilizer_reduce,
    stabilizer_stratification,
    validate_presentation,
    witness_subtori,
)
from stabred.cdga import homogeneous_weight, is_fixed_weight
from stabred.cli import main
from stabred.poly import GREVLEX, LEX, Polynomial
from stabred.report import excluded_document
from stabred.scene import parse_scene

from helpers import (
    FULL1,
    RANK2_TREES,
    SCENE_DIR,
    SHIPPED_SCENES,
    bench_workload,
    chart_images,
    chart_truncation_via_lambda,
    ideal_of,
    lambda_matrix,
    poly,
    pull_back,
    rank2_tree_scene_file,
    rees_relations_by_division,
    scene_file,
    strings,
    substitute,
)
from test_torus import _every_chart, _reduction_nodes

V = ("x", "y")
HYPERBOLIC = (GradedVariable("x", (1,)), GradedVariable("y", (-1,)))


def synthetic_pair_scene():
    """Koszul pair whose degree-2 generator moves under the full torus."""
    gens1 = (
        Generator1("w1", (2,), poly("x^2", V)),
        Generator1("w2", (3,), poly("x^3", V)),
    )
    gens2 = (
        Generator2("e", (5,), (("w1", poly("x^3", V)), ("w2", poly("-x^2", V)))),
    )
    return GradedCdga(1, HYPERBOLIC, gens1, gens2)


# -- lambda matrices -----------------------------------------------------------

def test_lambda_matrix_frozen():
    fs = (poly("x*y^2", V), poly("x^2*y", V))
    gs = (poly("x", V), poly("y", V))
    lam = lambda_matrix(fs, gs)
    assert [strings(row) for row in lam] == [("y^2", "0"), ("x*y", "0")]


def test_lambda_matrix_single():
    lam = lambda_matrix((poly("x^2", V),), (poly("x", V),))
    assert lam[0][0].to_string() == "x"


def test_lambda_matrix_satisfies_identity():
    fs = (poly("x^2*y", V), poly("x*y^2 - x^2", V))
    gs = (poly("x", V), poly("y", V))
    for order in (LEX, GREVLEX):
        lam = lambda_matrix(fs, gs, order)
        for f, row in zip(fs, lam):
            assert sum((c * g for c, g in zip(row, gs)), Polynomial.zero(V)) == f


def test_lambda_matrix_not_in_ideal():
    with pytest.raises(ValueError, match="entry 0"):
        lambda_matrix((poly("x + 1", V),), (poly("x", V), poly("y", V)))


# -- moving-coefficient condition ----------------------------------------------

def test_dagger_holds_without_gens2():
    assert dagger_check(load_scene("scenes/a2-hyperbolic.json"), FULL1)


def test_dagger_exempts_fixed_gens2():
    assert dagger_check(load_scene("scenes/darboux-x2y2.json"), FULL1)


def test_dagger_accepts_moving_coefficients():
    assert dagger_check(synthetic_pair_scene(), FULL1)


def test_dagger_rejects_constant_coefficient_on_moving_pair():
    gens1 = (
        Generator1("w1", (2,), poly("x^2", V)),
        Generator1("w2", (2,), poly("x^2", V)),
    )
    # a constant coefficient, and one whose moving monomial x*y sits beside
    # the fixed-only monomial 1: neither vanishes on the center
    for text in ("1", "x*y + 1"):
        c = poly(text, V)
        gens2 = (Generator2("e", (2,), (("w1", c), ("w2", -c))),)
        x = GradedCdga(1, HYPERBOLIC, gens1, gens2)
        assert validate_presentation(x).ok
        assert not dagger_check(x, FULL1)
        with pytest.raises(DaggerViolation):
            rees_presentation(x, FULL1)
        with pytest.raises(DaggerViolation):
            blowup_charts(x, FULL1)


def test_dagger_is_relative_to_the_subtorus():
    # same presentation, but a subtorus fixing every weight sees no moving pair
    gens1 = (
        Generator1("w1", (2,), poly("x^2", V)),
        Generator1("w2", (2,), poly("x^2", V)),
    )
    gens2 = (
        Generator2("e", (2,), (("w1", poly("1", V)), ("w2", poly("-1", V)))),
    )
    x = GradedCdga(1, HYPERBOLIC, gens1, gens2)
    trivial = SubtorusBasis(1, ())
    assert dagger_check(x, trivial)


# -- Rees presentations ----------------------------------------------------------

def test_rees_degree_zero_relations():
    rp = rees_presentation(load_scene("scenes/xy2-x2y.json"), FULL1)
    zero_part = [r.element.to_string() for r in rp.relations if r.homogeneous_degree == 0]
    assert zero_part == ["t_inv*v_x - x", "t_inv*v_y - y"]
    assert rp.t_inv == "t_inv"
    assert [(v.name, v.homogeneous_degree, v.source) for v in rp.homog_vars] == [
        ("t_inv", -1, None),
        ("v_x", 1, "x"),
        ("v_y", 1, "y"),
    ]


def test_rees_lambda_relations_frozen():
    rp = rees_presentation(load_scene("scenes/xy2-x2y.json"), FULL1)
    lam_part = [r.element.to_string() for r in rp.relations if r.homological_degree == 0 and r.homogeneous_degree == 1]
    assert lam_part == ["x*y*v_x", "y^2*v_x"]


def test_rees_smooth_scene_has_only_degree_zero_relations():
    rp = rees_presentation(load_scene("scenes/a2-hyperbolic.json"), FULL1)
    assert [(r.homological_degree, r.homogeneous_degree) for r in rp.relations] == [(0, 0), (0, 0)]


def test_rees_fixed_gens2_contribute_no_relation():
    rp = rees_presentation(load_scene("scenes/darboux-x2y2.json"), FULL1)
    assert [(r.homological_degree, r.homogeneous_degree) for r in rp.relations] == [
        (0, 0),
        (0, 0),
        (0, 1),
        (0, 1),
    ]


def test_rees_moving_gens2_relation_frozen():
    rp = rees_presentation(synthetic_pair_scene(), FULL1)
    pair_part = [r.element.to_string() for r in rp.relations if r.homological_degree == 1]
    assert pair_part == ["x^2*v_x*w1 - x*v_x*w2"]


def test_rees_ring_layout():
    rp = rees_presentation(synthetic_pair_scene(), FULL1)
    assert rp.ring == ("x", "y", "t_inv", "v_x", "v_y", "w1", "w2")


def test_rees_setting_t_to_one_recovers_the_differentials():
    x = synthetic_pair_scene()
    rp = rees_presentation(x, FULL1)
    images = {name: Polynomial.variable(rp.ring, name) for name in rp.ring}
    images["t_inv"] = Polynomial.constant(rp.ring, Fraction(1))
    for v in rp.homog_vars:
        if v.source is not None:
            images[v.name] = Polynomial.variable(rp.ring, v.source)
    collapsed = [substitute(r.element, images, rp.ring) for r in rp.relations]
    assert collapsed[0].is_zero() and collapsed[1].is_zero()
    for g, value in zip(x.gens1, collapsed[2:4]):
        assert value == g.differential.extend(rp.ring)
    e = x.gens2[0]
    expected = sum(
        (c.extend(rp.ring) * Polynomial.variable(rp.ring, t) for t, c in e.differential),
        Polynomial.zero(rp.ring),
    )
    assert collapsed[4] == expected


def test_rees_center_at_t_zero():
    rp = rees_presentation(load_scene("scenes/xy2-x2y.json"), FULL1)
    images = {name: Polynomial.variable(rp.ring, name) for name in rp.ring}
    images["t_inv"] = Polynomial.zero(rp.ring)
    frozen = [
        substitute(r.element, images, rp.ring)
        for r in rp.relations
        if r.homogeneous_degree == 0
    ]
    assert strings(frozen) == ("-x", "-y")


def test_rees_relations_are_bihomogeneous():
    for scene in (
        load_scene("scenes/xy2-x2y.json"),
        load_scene("scenes/darboux-x2y2.json"),
        synthetic_pair_scene(),
    ):
        rp = rees_presentation(scene, FULL1)
        weight_of = {v.name: v.weight for v in scene.ring_vars}
        weight_of.update({v.name: v.weight for v in rp.homog_vars})
        weight_of.update({g.name: g.weight for g in scene.gens1})
        weights = tuple(weight_of[n] for n in rp.ring)
        degree_of = {v.name: v.homogeneous_degree for v in rp.homog_vars}
        degrees = tuple(degree_of.get(n, 0) for n in rp.ring)
        for r in rp.relations:
            ok, _ = homogeneous_weight(r.element, weights, scene.torus_rank)
            assert ok
            for exps in r.element.terms:
                assert sum(e * d for e, d in zip(exps, degrees)) == r.homogeneous_degree


def test_rees_relations_match_the_division_oracle(corpus, tmp_path):
    # the exponent rewrite against quotients by ordered division, in both
    # orders, for every witness subtorus of every scene
    scenes = [load_scene(scene_file(label, tmp_path)) for label in SHIPPED_SCENES + tuple(RANK2_TREES)]
    checked = 0
    for x in scenes + list(corpus):
        for h in witness_subtori(stabilizer_stratification(x)):
            rp = rees_presentation(x, h)
            ours = [
                (r.homological_degree, r.homogeneous_degree, r.element)
                for r in rp.relations
                if r.homogeneous_degree == 1
            ]
            for order in (LEX, GREVLEX):
                assert ours == rees_relations_by_division(rp, order)
            checked += 1
    assert checked >= len(scenes) + len(corpus)


def test_rees_checks_subtorus_rank():
    with pytest.raises(ValueError):
        rees_presentation(load_scene("scenes/xy.json"), SubtorusBasis.full(2))


# -- blow-up charts ---------------------------------------------------------------

def test_charts_are_sorted_by_center():
    charts = blowup_charts(load_scene("scenes/xy2-x2y.json"), FULL1)
    assert [c.name for c in charts] == ["chart_x", "chart_y"]
    assert [c.center_var for c in charts] == ["x", "y"]


CHART_MAP_KEYS = {"name", "center", "slopes", "phi", "subtorus"}


@pytest.mark.parametrize("scene", SHIPPED_SCENES + tuple(RANK2_TREES))
def test_each_node_record_holds_its_presentation_and_each_chart_entry_its_map(scene, tmp_path):
    # each fact once: a reduce chart entry is the chart map, and the chart's
    # presentation is the cdga of the record it leads to; blowup and kirwan
    # have no tree, so each chart carries its cdga beside the map
    path = str(scene_file(scene, tmp_path))
    documents = {}
    for command in ("reduce", "blowup", "kirwan"):
        target = tmp_path / f"{command}.json"
        assert main([command, "--scene", path, "--json", str(target)]) == 0
        documents[command] = json.loads(target.read_text())["data"]
    for command in ("blowup", "kirwan"):
        charts = documents[command]["charts"]
        assert charts and all(set(chart) == CHART_MAP_KEYS | {"cdga"} for chart in charts)

    records = documents["reduce"]["nodes"]
    by_id = {record["id"]: record for record in records}
    edges = 0
    for record in records:
        parent_weights = {v["name"]: v["weight"] for v in record["cdga"]["variables"]}
        for child in record["children"]:
            chart = child["chart"]
            assert set(chart) == CHART_MAP_KEYS
            # xi leads the child's ring, is the image of the center and is
            # weighted like it
            xi = by_id[child["node"]]["cdga"]["variables"][0]
            assert xi["name"] == chart["phi"][chart["center"]]
            assert xi["weight"] == parent_weights[chart["center"]]
            edges += 1
    # every record but the root is listed by one chart entry; a root whose
    # charts all lack a point lists none
    assert edges == len(records) - 1

    nodes = list(_reduction_nodes(stabilizer_reduce(load_scene(path))))
    assert [node.id for node in nodes] == [record["id"] for record in records]
    for node, record in zip(nodes, records):
        presentation = dict(record["cdga"])
        assert presentation.pop("excluded") == excluded_document(node.cdga.excluded)
        unit = Ideal.unit(node.cdga.var_names)
        assert parse_scene(presentation) == node.cdga._replace(excluded=unit)


def test_chart_geometry():
    chart = blowup_charts(load_scene("scenes/xy2-x2y.json"), FULL1)[0]
    assert chart.cdga.ring_vars[0].name == "xi"
    assert chart.cdga.ring_vars[0].weight == (1,)
    assert [(v.name, v.weight) for v in chart.cdga.ring_vars] == [("xi", (1,)), ("u_y", (-2,))]
    assert {k: v.to_string() for k, v in dict(chart.phi).items()} == {
        "x": "xi",
        "y": "xi*u_y",
    }
    assert chart.slopes == (("y", "u_y"),)


def test_chart_transforms_divide_moving_differentials():
    charts = blowup_charts(load_scene("scenes/xy2-x2y.json"), FULL1)
    first = {g.name: g for g in charts[0].cdga.gens1}
    assert first["w1"].differential.to_string() == "xi^2*u_y"
    assert first["w1"].weight == (0,)
    assert first["w2"].differential.to_string() == "xi^2*u_y^2"
    assert first["w2"].weight == (-2,)
    second = {g.name: g for g in charts[1].cdga.gens1}
    assert second["w1"].differential.to_string() == "xi^2*u_x^2"
    assert second["w2"].differential.to_string() == "xi^2*u_x"


def test_chart_keeps_fixed_generator_untouched():
    chart = blowup_charts(load_scene("scenes/xy.json"), FULL1)[0]
    (w,) = chart.cdga.gens1
    assert w.weight == (0,)
    assert w.differential.to_string() == "xi^2*u_y"


def test_chart_fixed_gens2_coefficients_pick_up_the_exceptional():
    chart = blowup_charts(load_scene("scenes/darboux-x2y2.json"), FULL1)[0]
    (e,) = chart.cdga.gens2
    assert e.weight == (0,)
    assert [(t, c.to_string()) for t, c in e.differential] == [
        ("w_x", "xi^2"),
        ("w_y", "-xi^2*u_y"),
    ]
    assert validate_presentation(chart.cdga).ok


def test_chart_moving_gens2_divided_once():
    charts = blowup_charts(synthetic_pair_scene(), FULL1)
    by_name = {c.name: c for c in charts}
    (e_x,) = by_name["chart_x"].cdga.gens2
    assert e_x.weight == (4,)
    assert [(t, c.to_string()) for t, c in e_x.differential] == [
        ("w1", "xi^3"),
        ("w2", "-xi^2"),
    ]
    (e_y,) = by_name["chart_y"].cdga.gens2
    assert e_y.weight == (6,)
    assert [(t, c.to_string()) for t, c in e_y.differential] == [
        ("w1", "xi^3*u_x^3"),
        ("w2", "-xi^2*u_x^2"),
    ]
    for c in charts:
        assert validate_presentation(c.cdga).ok


def test_chart_excluded_is_the_strict_transform():
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=ideal_of(V, "x^2*y"))
    charts = blowup_charts(x, FULL1)
    # phi(x^2*y) is xi^3*u_y in chart_x and xi^3*u_x^2 in chart_y; setting
    # xi to 1 leaves the strict part
    assert strings(charts[0].cdga.excluded.generators) == ("u_y",)
    assert strings(charts[1].cdga.excluded.generators) == ("u_x^2",)
    # which is the saturation by xi of the total pull-back
    for chart in charts:
        ring = chart.cdga.var_names
        total = Ideal(ring, tuple(substitute(g, dict(chart.phi), ring) for g in x.excluded.generators))
        xi = Polynomial.variable(ring, chart.cdga.ring_vars[0].name)
        assert chart.cdga.excluded.generators == saturate(total, xi).groebner()


def test_a_non_monomial_exclusion_is_refused_before_any_chart():
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=ideal_of(V, "x*y - 1"))
    with pytest.raises(InvalidPresentation, match="x\\*y - 1 is not a monomial"):
        blowup_charts(x, FULL1)
    with pytest.raises(InvalidPresentation, match="not a monomial"):
        kirwan_charts(x, FULL1)


def test_chart_excluded_unit_normalises_to_zero():
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=ideal_of(V, "x"))
    charts = blowup_charts(x, FULL1)
    # the removed axis leaves chart_x entirely through the exceptional divisor,
    # so chart_x removes nothing: its excluded ideal is the unit ideal
    assert charts[0].cdga.excluded.is_unit()
    assert strings(charts[1].cdga.excluded.generators) == ("u_x",)


def test_no_center_without_moving_variables():
    x = GradedCdga(1, (GradedVariable("z", (0,)),))
    with pytest.raises(NoCenter):
        blowup_charts(x, FULL1)


def test_blowup_checks_subtorus_rank():
    with pytest.raises(ValueError):
        blowup_charts(load_scene("scenes/xy.json"), SubtorusBasis.full(2))


# -- Kirwan deletion ---------------------------------------------------------------

def test_kirwan_charts_delete_the_unstable_strict_transform():
    x = load_scene("scenes/a2-hyperbolic.json")
    charts = kirwan_charts(x, FULL1)
    assert strings(charts[0].cdga.excluded.generators) == ("u_y",)
    assert strings(charts[1].cdga.excluded.generators) == ("u_x",)
    assert not any(c.cdga.excluded.is_zero() for c in charts)


def test_kirwan_flags_fully_unstable_charts():
    x = load_scene("scenes/a2-positive.json")
    assert saturation_ideal(x, FULL1).is_zero()
    charts = kirwan_charts(x, FULL1)
    # every point removed, so the chart's stratification finds no nonempty flat
    assert all(c.cdga.excluded.is_zero() for c in charts)
    assert all(stabilizer_stratification(c.cdga).maximal_support == () for c in charts)


def test_fully_unstable_follows_the_chart_exclusion():
    # a parent that has removed every point passes that on to each chart
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=Ideal.zero(V))
    charts = blowup_charts(x, FULL1)
    assert all(c.cdga.excluded.is_zero() for c in charts)
    assert all(stabilizer_stratification(c.cdga).maximal_support == () for c in charts)
    charts = blowup_charts(base, FULL1)
    assert not any(c.cdga.excluded.is_zero() for c in charts)
    assert all(stabilizer_stratification(c.cdga).maximal_support for c in charts)


def test_kirwan_folds_in_the_parent_exclusions():
    base = load_scene("scenes/a2-hyperbolic.json")
    x = GradedCdga(1, base.ring_vars, excluded=ideal_of(V, "x^3*y^2", "y^4"))
    charts = kirwan_charts(x, FULL1)
    # removals accumulate as a union of loci: in chart_x the strict
    # transform u_y of the unstable axes and (u_y^2, u_y^4) of the removed
    # locus, whose minimal lcms are u_y^2
    ring = ("xi", "u_y")
    got = charts[0].cdga.excluded
    assert strings(got.generators) == ("u_y^2",)
    assert ideal_equal(got, intersect(ideal_of(ring, "u_y"), ideal_of(ring, "u_y^2", "u_y^4")))
    # in chart_y, y^4 pulls back to xi^4, whose strict transform is the
    # unit ideal, so only the unstable u_x is removed
    assert strings(charts[1].cdga.excluded.generators) == ("u_x",)


# -- truncation cross-checks ---------------------------------------------------------

def test_crosscheck_on_named_scenes():
    for path in (
        "scenes/xy2-x2y.json",
        "scenes/darboux-x2y2.json",
        "scenes/xy.json",
    ):
        parent = load_scene(path)
        for chart in blowup_charts(parent, FULL1):
            assert crosscheck_truncation(chart, parent)


def test_crosscheck_on_synthetic_pair():
    parent = synthetic_pair_scene()
    for chart in blowup_charts(parent, FULL1):
        assert crosscheck_truncation(chart, parent)


def test_crosscheck_fails_on_a_moving_differential_left_undivided():
    # w1 = x^2*y moves, so in chart_x it must lose one factor of xi
    parent = load_scene("scenes/xy2-x2y.json")
    chart = blowup_charts(parent, FULL1)[0]
    xi = Polynomial.variable(chart.cdga.var_names, chart.cdga.ring_vars[0].name)
    w1, w2 = chart.cdga.gens1
    undivided = chart.cdga._replace(gens1=(w1._replace(differential=w1.differential * xi), w2))
    assert crosscheck_truncation(chart, parent)
    assert not crosscheck_truncation(chart._replace(cdga=undivided), parent)


@pytest.mark.parametrize("label", tuple(RANK2_TREES))
def test_crosscheck_takes_no_normal_form(label, tmp_path, monkeypatch):
    # both sides are compared by their reduced grevlex bases, which are
    # unique to each ideal, so no membership test runs; every chart of every
    # node is compared, those left out of the tree for having no point too
    charts = list(_every_chart(stabilizer_reduce(load_scene(rank2_tree_scene_file(label, tmp_path)))))

    def refused(*args):
        raise AssertionError("normal_form called")

    monkeypatch.setattr(stabred.ideal, "normal_form", refused)
    for node, chart in charts:
        assert crosscheck_truncation(chart, node.cdga), (node.id, chart.name)
    assert charts


def test_chart_truncation_ignores_gens2():
    full = load_scene("scenes/darboux-x2y2.json")
    stripped = GradedCdga(1, full.ring_vars, full.gens1)
    for a, b in zip(blowup_charts(full, FULL1), blowup_charts(stripped, FULL1)):
        assert classical_truncation(a.cdga) == classical_truncation(b.cdga)


def test_chart_truncation_localizes_correctly_outside_the_exceptional():
    # inverting the exceptional coordinate must recover the pulled-back ideal
    for path in ("scenes/xy2-x2y.json", "scenes/darboux-x2y2.json"):
        parent = load_scene(path)
        parent_truncation = classical_truncation(parent)
        for chart in blowup_charts(parent, FULL1):
            ring = chart.cdga.var_names
            xi = Polynomial.variable(ring, chart.cdga.ring_vars[0].name)
            unit_slice = Ideal(ring, (xi - Polynomial.constant(ring, Fraction(1)),))
            images = dict(chart.phi)
            pulled = Ideal(
                ring,
                tuple(substitute(g, images, ring) for g in parent_truncation.generators),
            )
            chart_side = classical_truncation(chart.cdga)
            lhs = Ideal(ring, saturate(chart_side, xi).generators + unit_slice.generators)
            rhs = Ideal(ring, pulled.generators + unit_slice.generators)
            assert ideal_equal(lhs, rhs)


def test_lambda_route_matches_chart_truncation():
    parent = load_scene("scenes/xy2-x2y.json")
    moving = ("x", "y")
    fs = tuple(g.differential for g in parent.gens1)
    gs = tuple(Polynomial.variable(V, n) for n in moving)
    for order in (LEX, GREVLEX):
        lam = lambda_matrix(fs, gs, order)
        for chart in blowup_charts(parent, FULL1):
            via_lambda = chart_truncation_via_lambda(lam, moving, chart)
            assert ideal_equal(via_lambda, classical_truncation(chart.cdga))


def test_lambda_route_is_representation_independent():
    # a hand-picked diagonal representative of the same differentials
    parent = load_scene("scenes/xy2-x2y.json")
    lam = ((poly("x*y", V), Polynomial.zero(V)), (Polynomial.zero(V), poly("x*y", V)))
    for chart in blowup_charts(parent, FULL1):
        via_lambda = chart_truncation_via_lambda(lam, ("x", "y"), chart)
        assert ideal_equal(via_lambda, classical_truncation(chart.cdga))


# -- charts against each other and against the Rees presentation ------------------


# f = 0 removed: the witness (1, 0) fixes f and moves a, b and c, so every
# chart carries the removed locus, which the unstable locus does not hold
CARRIED = GradedCdga(
    2,
    tuple(GradedVariable(n, w) for n, w in (("a", (1, 0)), ("b", (1, 0)), ("c", (-1, 0)), ("f", (0, 1)))),
    excluded=ideal_of(("a", "b", "c", "f"), "f"),
)


def _witness_blowups(corpus):
    """(node id, presentation, witness, Kirwan charts) at every witness of
    every node of the reductions of the scene files, the rank-2 trees,
    ``CARRIED`` and the test corpus; a rank-2 tree that fails to reduce
    gives its root."""
    scenes = [load_scene(str(path)) for path in sorted(SCENE_DIR.glob("*.json"))]
    scenes += [parse_scene(data) for data in bench_workload("rank2-trees").values()]
    scenes.append(CARRIED)
    for x in scenes + list(corpus):
        try:
            nodes = [(n.id, n.cdga, n.stabilizer) for n in _reduction_nodes(stabilizer_reduce(x))]
        except StrictDecreaseViolation:
            nodes = [("root", x, stabilizer_stratification(x))]
        for node_id, y, report in nodes:
            if report.max_dim > 0:
                for h in report.witnesses:
                    yield node_id, y, h, kirwan_charts(y, h)


def _transition(chart_c, chart_m):
    """The map from chart m's ring into chart c's over u_m != 0, denominators
    cleared: xi' = xi*u_m, u'_c = 1/u_m, u'_k = u_k/u_m, each fixed variable
    itself; a polynomial of degree n in the slopes is multiplied by u_m^n."""
    ring = chart_c.cdga.var_names
    slope_c, slope_m = dict(chart_c.slopes), dict(chart_m.slopes)
    u_m = ring.index(slope_c[chart_m.center_var])
    images = []
    for v in chart_m.cdga.var_names:
        e = [0] * len(ring)
        if v == chart_m.cdga.ring_vars[0].name:
            e[0] = e[u_m] = 1
        elif v in slope_m.values():
            source = next(k for k, u in slope_m.items() if u == v)
            e[u_m] = -1
            if source != chart_c.center_var:
                e[ring.index(slope_c[source])] = 1
        else:
            e[ring.index(v)] = 1
        images.append(tuple(e))
    slopes = [i for i, v in enumerate(chart_m.cdga.var_names) if v in slope_m.values()]

    def transform(ideal):
        out = []
        for p in ideal.generators:
            n = max((sum(exps[i] for i in slopes) for exps in p.terms), default=0)
            out.append(pull_back(p, ring, images, tuple(n * (i == u_m) for i in range(len(ring)))))
        return Ideal(ring, tuple(out))

    return transform, Polynomial.variable(ring, ring[u_m])


def test_the_charts_of_a_blow_up_glue(corpus):
    # over u_m != 0 the chart at c and the chart at m are one open set, so
    # the transition identifies their truncations and their removed loci
    pairs = 0
    for node_id, _, h, charts in _witness_blowups(corpus):
        for chart_c in charts:
            for chart_m in charts:
                if chart_m is chart_c:
                    continue
                transform, u_m = _transition(chart_c, chart_m)
                for ideal_of_chart in (classical_truncation, lambda y: y.excluded):
                    ours = saturate(ideal_of_chart(chart_c.cdga), u_m)
                    theirs = saturate(transform(ideal_of_chart(chart_m.cdga)), u_m)
                    assert ideal_equal(ours, theirs), (node_id, h, chart_c.name, chart_m.name)
                pairs += 1
    assert pairs == 454


def test_each_chart_is_the_rees_presentation_at_its_center(corpus):
    # the chart at c inverts the coordinate v_c, so it maps t_inv -> xi,
    # v_c -> 1, v_m -> u_m, x_c -> xi, x_m -> xi*u_m, each fixed variable to
    # itself and a moving degree-1 generator g -> xi*g; that carries the
    # Rees relations to the chart's moving differentials and coefficients
    charts_met = 0
    for node_id, x, h, charts in _witness_blowups(corpus):
        rp = rees_presentation(x, h)
        moving1 = [not is_fixed_weight(g.weight, h) for g in x.gens1]
        moving2 = [not is_fixed_weight(g.weight, h) for g in x.gens2]
        relations = [r.element for r in rp.relations if r.homogeneous_degree == 1]
        for chart in charts:
            ring = chart.cdga.var_names + tuple(g.name for g in x.gens1)
            # rp.ring is the parent's variables, t_inv, the coordinates
            # v_m = x_m / t_inv and the degree-1 generators
            pad = (0,) * len(x.gens1)
            image = {v: e + pad for v, e in zip(x.var_names, chart_images(chart, x.var_names))}
            xi = image[chart.center_var]
            images = [image[v] for v in x.var_names] + [xi]
            images += [tuple(a - b for a, b in zip(image[v.source], xi)) for v in rp.homog_vars[1:]]
            for i, moves in enumerate(moving1):
                e = [0] * len(ring)
                e[0], e[len(chart.cdga.var_names) + i] = int(moves), 1
                images.append(tuple(e))
            expected = [g.differential.extend(ring) for g, m in zip(chart.cdga.gens1, moving1) if m]
            expected += [
                sum((c.extend(ring) * Polynomial.variable(ring, t) for t, c in g.differential), Polynomial.zero(ring))
                for g, m in zip(chart.cdga.gens2, moving2)
                if m
            ]
            assert [pull_back(r, ring, images) for r in relations] == expected, (node_id, h, chart.name)
            charts_met += 1
    assert charts_met == 390
