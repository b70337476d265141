import json
import random
from fractions import Fraction

import pytest

from stabred import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Ideal,
    InternalError,
    InvalidPresentation,
    ObstructionReport,
    StrictDecreaseViolation,
    dagger_check,
    iter_leaves,
    kirwan_charts,
    load_scene,
    obstruction_report,
    stabilizer_reduce,
    stabilizer_stratification,
    tree_depth,
    witness_subtori,
)
from stabred import cdga, classical_truncation, ideal, reduce
from stabred.cli import main
from stabred.poly import Polynomial
from stabred.reduce import _delta2_generic_rank
from stabred.scene import parse_scene

from helpers import (
    RANK2_TREES,
    SCENE_DIR,
    SHIPPED_SCENES,
    bench_workload,
    build_corpus,
    evaluate,
    is_canonical,
    leaf_reports,
    poly,
    rank2_tree_scene_file,
    rational_rank,
    scene_file,
    strings,
)
from test_blowup import synthetic_pair_scene
from test_torus import RANK2, SKEW, STEEP, _every_chart, _reduction_nodes, critical

V = ("x", "y")


def test_hyperbolic_plane_tree():
    tree = stabilizer_reduce(load_scene("scenes/a2-hyperbolic.json"))
    assert tree._fields == ("id", "cdga", "stabilizer", "children")  # no report: it is the scene's
    assert tree.id == "root"
    assert tree.stabilizer.max_dim == 1
    assert tree_depth(tree) == 1
    assert [node.id for _, node in tree.children] == ["root/x", "root/y"]
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2
    reports = leaf_reports(tree)
    for chart, node in tree.children:
        assert node.stabilizer.max_dim == 0
        assert node.cdga.torus_dagger
        assert reports[node.id].quasi_smooth
        assert reports[node.id].vdim == 1
        assert reports[node.id].e_ranks == (1, 0)
    assert strings(tree.children[0][1].cdga.excluded.generators) == ("u_y",)
    assert strings(tree.children[1][1].cdga.excluded.generators) == ("u_x",)


def test_darboux_tree():
    tree = stabilizer_reduce(load_scene("scenes/darboux-x2y2.json"))
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2 and tree_depth(tree) == 1
    reports = leaf_reports(tree)
    for node in leaves:
        report = reports[node.id]
        assert node.cdga.torus_dagger
        assert report.vdim == 0
        assert report.e_ranks == (1, 1)
        assert not report.quasi_smooth
        assert node.stabilizer.max_dim == 0


def test_xy_scene_tree():
    tree = stabilizer_reduce(load_scene("scenes/xy.json"))
    leaves = list(iter_leaves(tree))
    assert [n.id for n in leaves] == ["root/x", "root/y"]
    reports = leaf_reports(tree)
    for node in leaves:
        assert reports[node.id].vdim == 0
        assert reports[node.id].e_ranks == (1, 1)
        assert reports[node.id].quasi_smooth


def test_charts_that_remove_every_point_leave_the_tree():
    # every point of a2-positive is unstable: both charts have no point, so
    # they add nothing to the quotient and the root keeps neither of them
    x = load_scene("scenes/a2-positive.json")
    tree = stabilizer_reduce(x)
    assert tree.stabilizer.max_dim == 1
    assert tree.children == ()
    assert leaf_reports(tree) == {}
    assert list(iter_leaves(tree)) == []
    (h,) = witness_subtori(tree.stabilizer)
    charts = kirwan_charts(x, h)
    assert [chart.name for chart in charts] == ["chart_x", "chart_y"]
    for chart in charts:
        assert chart.cdga.excluded.is_zero()  # every point removed
        assert stabilizer_stratification(chart.cdga).maximal_support == ()


def test_synthetic_pair_tree_keeps_derived_structure():
    tree = stabilizer_reduce(synthetic_pair_scene())
    leaves = list(iter_leaves(tree))
    assert len(leaves) == 2
    reports = leaf_reports(tree)
    for node in leaves:
        assert len(node.cdga.gens2) == 1
        assert node.cdga.torus_dagger
        assert reports[node.id].vdim == 0
        assert reports[node.id].e_ranks == (1, 1)


def test_rank_zero_torus_is_a_single_leaf():
    x = GradedCdga(0, (GradedVariable("x", ()),), (Generator1("w", (), poly("x^2", ("x",))),))
    tree = stabilizer_reduce(x)
    assert tree.children == ()
    assert list(leaf_reports(tree)) == ["root"]
    assert tree.stabilizer.max_dim == 0


@pytest.mark.parametrize(
    "variables, text, k, leaves",
    [
        (RANK2, "a^2*b^2 + c*d", 2, 0),
        (RANK2, "a*b + c*d - 1", 2, 0),
        (SKEW, "a*b + c*d", 2, 0),
        (RANK2, "a*b*c*d + a*b", 2, 6),
        (RANK2 + (GradedVariable("e", (1, 1)), GradedVariable("f", (-1, -1))), "a*b + c*d + e*f", 4, 0),
        (STEEP, "x^12*y + z*w", 2, 0),
        (
            tuple(GradedVariable(f"{v}{i}", (s,)) for i in (1, 2, 3) for v, s in (("x", 1), ("y", -1))),
            "x1*y1 + x2*y2 + x3*y3",
            5,
            0,
        ),
        # the presentation of scenes/darboux-x2y2.json
        ((GradedVariable("x", (1,)), GradedVariable("y", (-1,))), "x^2*y^2", 1, 2),
    ],
    ids=["a2b2+cd", "ab+cd-1", "ab+cd-skew", "abcd+ab", "ab+cd+ef", "steep", "x1y1+x2y2+x3y3", "darboux-x2y2"],
)
def test_critical_locus_leaves_are_minus_one_shifted_symplectic(variables, text, k, leaves):
    # a derived critical locus is (-1)-shifted symplectic: its two-term
    # complex is self-dual, so every reduced chart has vdim 0 and ranks (k, k);
    # only charts with a point are reported, so the count is pinned too
    reports = leaf_reports(stabilizer_reduce(critical(variables, text)))
    assert len(reports) == leaves
    for leaf_id, report in reports.items():
        assert report.vdim == 0, leaf_id
        assert report.e_ranks == (k, k), leaf_id


def test_a_node_is_reported_exactly_when_it_is_a_leaf_with_a_point(tmp_path):
    scenes = [load_scene(scene_file(s, tmp_path)) for s in SHIPPED_SCENES + tuple(RANK2_TREES)]
    nodes = []
    for x in scenes + list(build_corpus()):
        tree = stabilizer_reduce(x)
        reported = leaf_reports(tree).keys()
        nodes.extend((node, node.id in reported) for node in _reduction_nodes(tree))
    for node, is_reported in nodes:
        leaf = node.stabilizer.max_dim == 0 and bool(node.stabilizer.maximal_support)
        assert is_reported == leaf, node.id
        assert not node.children or node.stabilizer.max_dim > 0, node.id
        # a chart with no point leaves the tree, so only a root can lack one
        assert node.id == "root" or node.stabilizer.maximal_support, node.id
    # both kinds of childless node occur: reported leaves, and nodes whose
    # charts all lack a point
    assert {node.stabilizer.max_dim > 0 for node, _ in nodes if not node.children} == {True, False}


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
        for report in leaf_reports(stabilizer_reduce(scene)).values():
            assert report.quasi_smooth


def test_a_chart_that_keeps_max_dim_is_refused_before_descending(monkeypatch):
    # every chart hands back its parent's presentation, so no edge lowers
    # max_dim; the first edge must be refused before its child is reduced
    kirwan_charts, stratify = reduce.kirwan_charts, reduce.stabilizer_stratification
    stratified = []

    def unchanged_charts(x, *args, **kwargs):
        return tuple(chart._replace(cdga=x) for chart in kirwan_charts(x, *args, **kwargs))

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


def test_a_chart_that_loses_the_degree_2_vanishing_property_exits_three(monkeypatch, capsys):
    # the check holds on the root ring (x, y) and fails on every chart; the
    # breach raises InternalError, which ``python -O`` cannot strip.  Each
    # presentation runs the whole-torus check through ``cdga.dagger_check``
    checked = cdga.dagger_check
    monkeypatch.setattr(
        cdga, "dagger_check", lambda x, h: x.var_names == ("x", "y") and checked(x, h)
    )
    message = "blow-up chart of 'root' lost the degree-2 vanishing property (subtorus [[1]]"
    with pytest.raises(InternalError) as caught:
        stabilizer_reduce(load_scene("scenes/a2-hyperbolic.json"))
    assert str(caught.value).startswith(message)

    code = main(["reduce", "--scene", "scenes/a2-hyperbolic.json"])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"internal error: {message}")


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
    assert not report.quasi_smooth


def test_obstruction_report_without_dagger_omits_ranks():
    gens1 = (
        Generator1("w1", (2,), poly("x^2", V)),
        Generator1("w2", (2,), poly("x^2", V)),
    )
    gens2 = (Generator2("e", (2,), (("w1", poly("1", V)), ("w2", poly("-1", V)))),)
    hyperbolic = (GradedVariable("x", (1,)), GradedVariable("y", (-1,)))
    x = GradedCdga(1, hyperbolic, gens1, gens2)
    report = obstruction_report(x)
    assert not x.torus_dagger
    assert report.e_ranks is None
    assert report.vdim == 0


# The full-torus dagger fails at the root: g, of weight (0, 1), has the
# constant coefficient 1 on t1.  The witness (1, 0) fixes q, s, t0, t1 and g,
# so its own dagger check passes and the root is blown up at x and at y.
OPEN_CASE = {
    "torus_rank": 2,
    "variables": [
        {"name": "x", "weight": [1, 0]},
        {"name": "y", "weight": [-1, 0]},
        {"name": "q", "weight": [0, 1]},
        {"name": "s", "weight": [0, -1]},
    ],
    "gens1": [
        {"name": "t0", "weight": [0, 0], "differential": "q*s - 1"},
        {"name": "t1", "weight": [0, 1], "differential": "q^2*s - q"},
    ],
    "gens2": [{"name": "g", "weight": [0, 1], "differential": {"t0": "-q", "t1": "1"}}],
}


def test_a_chart_keeps_the_failed_dagger_of_a_root_whose_witness_passes(tmp_path, capsys):
    # the constant coefficient of g lies in weight-0 variables and has xi
    # shift 0, so every chart keeps it and fails the dagger too: the leaves
    # have the root's report, with no e_ranks
    x = parse_scene(OPEN_CASE)
    tree = stabilizer_reduce(x)
    (h,) = tree.stabilizer.witnesses
    assert not x.torus_dagger
    assert h.vectors == ((1, 0),) and dagger_check(x, h)
    charts = [chart for _, chart in _every_chart(tree)]
    assert [chart.name for chart in charts] == ["chart_x", "chart_y"]
    assert not any(chart.cdga.torus_dagger for chart in charts)
    expected = ObstructionReport(vdim=1, e_ranks=None, quasi_smooth=False)
    assert obstruction_report(x) == expected
    assert leaf_reports(tree) == {"root/x": expected, "root/y": expected}
    for leaf in iter_leaves(tree):
        assert obstruction_report(leaf.cdga) == expected

    path = tmp_path / "open-case.json"
    path.write_text(json.dumps(OPEN_CASE), encoding="utf-8")
    assert main(["report", "--scene", str(path)]) == 0
    assert capsys.readouterr().out == (
        "root/x: vdim 1, e_ranks -, quasi_smooth False\n"
        "root/y: vdim 1, e_ranks -, quasi_smooth False\n"
    )


def test_every_leaf_has_the_report_of_its_root(tmp_path):
    # the per-leaf computation the documents no longer make, as an oracle:
    # every chart is birational onto its parent, so each reported leaf's own
    # report is the root's, and the generic rank of delta2 is kept along
    # every edge whose parent has the dagger
    scenes = [load_scene(scene_file(s, tmp_path)) for s in SHIPPED_SCENES + tuple(RANK2_TREES)]
    leaves = edges = 0
    for x in scenes + list(build_corpus()) + [parse_scene(OPEN_CASE)]:
        tree = stabilizer_reduce(x)
        root = obstruction_report(x)
        for leaf in iter_leaves(tree):
            assert obstruction_report(leaf.cdga) == root, leaf.id
            leaves += 1
        for node in _reduction_nodes(tree):
            if node.cdga.torus_dagger and node.children:
                rank = _delta2_generic_rank(node.cdga)
                for _, child in node.children:
                    assert _delta2_generic_rank(child.cdga) == rank, child.id
                    edges += 1
    assert (leaves, edges) == (114, 116)


def test_a_root_that_removes_every_point_is_empty():
    base = load_scene("scenes/a2-hyperbolic.json")
    # the zero ideal removes every point: no flat is nonempty, so the root
    # has neither children nor a report
    tree = stabilizer_reduce(base._replace(excluded=Ideal.zero(base.var_names)))
    assert tree.stabilizer.max_dim == 0
    assert tree.stabilizer.maximal_support == ()
    assert tree.children == ()
    assert leaf_reports(tree) == {}


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
    assert x.torus_dagger
    assert obstruction_report(x).e_ranks == (1, 1)


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
        sampled = max(rational_rank([[evaluate(c, pt) for c in row] for row in rows]) for pt in points)
        assert exact == sampled


def test_quasi_smooth_check():
    assert obstruction_report(load_scene("scenes/xy.json")).quasi_smooth
    assert not obstruction_report(load_scene("scenes/darboux-x2y2.json")).quasi_smooth


def test_each_groebner_basis_is_computed_once_per_run(tmp_path, monkeypatch, capsys):
    # the stratification, the node records and both sides of every
    # cross-check share one truncation basis per node, and a cross-check
    # whose recipe repeats the truncation's generators needs no basis
    inputs = []
    buchberger = ideal.buchberger

    def recording(generators, order):
        inputs.append((order, tuple((g.variables, frozenset(g.terms.items())) for g in generators)))
        return buchberger(generators, order)

    monkeypatch.setattr(ideal, "buchberger", recording)
    for label in ("crit-abcd+ab", "hyp-ab-1"):
        inputs.clear()
        path = rank2_tree_scene_file(label, tmp_path)
        assert main(["reduce", "--scene", str(path), "--json", str(tmp_path / "doc.json")]) == 0
        capsys.readouterr()
        assert inputs, label
        assert len(set(inputs)) == len(inputs), label


def test_each_node_is_validated_once_per_run(tmp_path, monkeypatch, capsys):
    # parsing, stabilizer_reduce, the blow-up of each inner node and the
    # report's invariant check all ask for a verdict; each presentation
    # keeps its own, so the check itself runs once per node of the tree
    checked = []
    check = cdga._check_presentation
    monkeypatch.setattr(cdga, "_check_presentation", lambda x: checked.append(x) or check(x))
    path = rank2_tree_scene_file("crit-abcd+ab", tmp_path)
    assert main(["reduce", "--scene", str(path), "--json", str(tmp_path / "doc.json")]) == 0
    capsys.readouterr()
    nodes = json.loads((tmp_path / "doc.json").read_text())["data"]["nodes"]
    assert len(nodes) > 1
    assert len(checked) == len(nodes)
    assert len({id(x) for x in checked}) == len(checked)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
def test_no_monomial_ideal_reaches_buchberger(order, tmp_path, monkeypatch, capsys):
    # the reduced basis of an ideal generated by monomials is its minimal
    # monomials in every order, so Ideal.groebner reads it off: truncations
    # spanned by partials such as b, a, d, c of a*b+c*d-1 and every removed
    # locus, in the node records and the cross-checks alike
    monomial_inputs = []
    buchberger = ideal.buchberger

    def recording(generators, order):
        if all(len(g.terms) == 1 for g in generators):
            monomial_inputs.append(strings(generators))
        return buchberger(generators, order)

    monkeypatch.setattr(ideal, "buchberger", recording)
    codes = []
    for label, data in bench_workload("rank2-trees").items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["reduce", "--scene", str(path), "--order", order, "--json", str(tmp_path / "doc.json")]
        codes.append(main(argv))
    capsys.readouterr()
    assert codes == [0] * 5 + [3] * 3  # three trees still fail strict decrease
    assert not monomial_inputs, f"{len(monomial_inputs)} calls, such as {monomial_inputs[0]}"


def test_a_non_monomial_exclusion_is_refused_before_reducing():
    base = load_scene("scenes/a2-hyperbolic.json")
    x = base._replace(excluded=Ideal(V, (poly("x*y - 1", V),)))
    with pytest.raises(InvalidPresentation, match="x\\*y - 1 is not a monomial"):
        stabilizer_reduce(x)


def _tree_polynomials(node):
    """Every polynomial a reduction tree holds: differentials, truncation
    bases, removed loci and chart maps."""
    x = node.cdga
    yield from (g.differential for g in x.gens1)
    yield from (coeff for g in x.gens2 for _, coeff in g.differential)
    yield from classical_truncation(x).groebner()
    yield from x.excluded.generators
    for chart, child in node.children:
        yield from (image for _, image in chart.phi)
        yield from _tree_polynomials(child)


@pytest.mark.parametrize("scene", SHIPPED_SCENES + tuple(RANK2_TREES))
def test_every_coefficient_of_a_reduction_tree_is_canonical(scene, tmp_path):
    tree = stabilizer_reduce(load_scene(scene_file(scene, tmp_path)))
    for p in _tree_polynomials(tree):
        assert all(is_canonical(c) for c in p.terms.values()), (scene, p.terms)


# -- a trivial pair leaves the reduction alone -----------------------------------

TRIVIAL_PAIR_CASES = [
    (path.stem, (w,)) for path in sorted(SCENE_DIR.glob("*.json")) for w in (0, 1, -2)
] + [(label, w) for label in RANK2_TREES for w in ((0, 0), (1, 0), (1, 1), (-1, 2))]


@pytest.mark.parametrize("scene, weight", TRIVIAL_PAIR_CASES)
def test_a_trivial_pair_leaves_the_leaves_and_shifts_e_ranks_by_one(scene, weight, tmp_path):
    # a variable t and a degree-1 generator e with de = t cut t out again,
    # so the quotient is the same: the same leaves with the same vdim, and
    # one more ring variable and degree-1 generator in the two-term complex.
    # A moving t adds a chart at t, where e_t = 1 leaves no point, so the
    # chart leaves the tree and the node ids stay the same.
    path = rank2_tree_scene_file(scene, tmp_path) if scene in RANK2_TREES else SCENE_DIR / f"{scene}.json"
    data = json.loads(path.read_text())
    base = parse_scene(data)
    data["variables"].append({"name": "t", "weight": list(weight)})
    data["gens1"].append({"name": "e_t", "weight": list(weight), "differential": "t"})
    padded = parse_scene(data)

    def reduced(x):
        tree = stabilizer_reduce(x)
        return [node.id for node in _reduction_nodes(tree)], leaf_reports(tree)

    (ids, before), (padded_ids, after) = reduced(base), reduced(padded)
    assert padded_ids == ids
    assert after.keys() == before.keys()
    for leaf_id, report in before.items():
        assert after[leaf_id].vdim == report.vdim, leaf_id
        assert report.e_ranks is not None, leaf_id
        assert after[leaf_id].e_ranks == (report.e_ranks[0] + 1, report.e_ranks[1] + 1), leaf_id
