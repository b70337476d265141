import itertools
from collections import Counter
from unittest import mock

import pytest

from stabred import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Ideal,
    NoPositiveDimensionalStabilizer,
    Polynomial,
    StrictDecreaseViolation,
    SubtorusBasis,
    classical_truncation,
    from_invariant_function,
    ideal_equal,
    iter_leaves,
    kirwan_charts,
    load_scene,
    saturate,
    saturation_ideal,
    stabilizer_reduce,
    stabilizer_stratification,
    tree_depth,
    witness_subtori,
)
from stabred import torus
from stabred.cdga import pairing, weight_split
from stabred.intlinalg import integer_kernel
from stabred.torus import _closure, _covers

from helpers import (
    FULL1,
    RANK2_TREES,
    SHIPPED_SCENES,
    build_corpus,
    ideal_of,
    poly,
    rational_rank,
    scene_file,
    strings,
)

V = ("x", "y")
RANK2 = (
    GradedVariable("a", (1, 0)),
    GradedVariable("b", (-1, 0)),
    GradedVariable("c", (0, 1)),
    GradedVariable("d", (0, -1)),
)

SKEW = RANK2[:2] + (GradedVariable("c", (1, 1)), GradedVariable("d", (-1, -1)))
# the one invariant monomial in x and y, x^12*y, has degree 13
STEEP = (
    GradedVariable("x", (1, 0)),
    GradedVariable("y", (-12, 0)),
    GradedVariable("z", (0, 1)),
    GradedVariable("w", (0, -1)),
)
# every primitive direction of the square lattice up to sign, on 8 variables
OCTAGON = RANK2 + (
    GradedVariable("e", (1, 1)),
    GradedVariable("f", (-1, -1)),
    GradedVariable("g", (1, -1)),
    GradedVariable("h", (-1, 1)),
)


def critical(variables, text):
    rank = len(variables[0].weight)
    return from_invariant_function(variables, rank, poly(text, [v.name for v in variables]))


def rank2_critical(text):
    return critical(RANK2, text)


def test_stratification_of_xy_scene():
    # the origin is the rank-0 flat; it lies on x*y = 0, so the walk stops
    # there without testing the line of rank 1
    report, _, tested = counted_stratification(load_scene("scenes/xy.json"))
    assert tested == [((), True)]
    assert report.max_dim == 1
    assert report.maximal_support == ((),)


def test_stratification_of_smooth_plane():
    report, _, tested = counted_stratification(load_scene("scenes/a2-hyperbolic.json"))
    assert tested == [((), True)]
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
    report, _, tested = counted_stratification(x)
    # the origin is removed, so a point is nonzero on x or on y, and the
    # walk starts at the one flat either spans, the line, where the
    # punctured axes have finite stabilizers
    assert tested == [(("x", "y"), True)]
    assert report.max_dim == 0
    assert report.maximal_support == (("x", "y"),)
    with pytest.raises(NoPositiveDimensionalStabilizer):
        witness_subtori(report)


def test_flats_of_one_rank_come_in_the_order_of_their_variables():
    # with the origin of 4-space removed, the walk starts at the rank-1
    # flats {a, b} and {c, d} of the removed generators; both are nonempty,
    # so both are maximal, in the order of their variables in the ring
    names = tuple(v.name for v in RANK2)
    x = GradedCdga(2, RANK2, excluded=ideal_of(names, "d", "c", "b", "a"))
    report, _, tested = counted_stratification(x)
    assert tested == [(("a", "b"), True), (("c", "d"), True)]
    assert report.max_dim == 1
    assert report.maximal_support == (("a", "b"), ("c", "d"))
    assert [h.vectors for h in witness_subtori(report)] == [((0, 1),), ((1, 0),)]


def test_witness_subtori_returns_the_kernels_the_stratification_built(monkeypatch):
    import stabred.torus as torus

    built = []

    def recording(*args):
        built.append(SubtorusBasis(*args))
        return built[-1]

    def refused(rows, width):
        raise AssertionError("integer_kernel called after the stratification")

    names = tuple(v.name for v in RANK2)
    monkeypatch.setattr(torus, "SubtorusBasis", recording)
    report = stabilizer_stratification(GradedCdga(2, RANK2, excluded=ideal_of(names, "a", "b", "c", "d")))
    monkeypatch.setattr(torus, "integer_kernel", refused)
    witnesses = witness_subtori(report)
    assert [h.vectors for h in witnesses] == [((0, 1),), ((1, 0),)]
    assert all(any(h is b for b in built) for h in witnesses)


def counted_stratification(x):
    """The stratification of ``x``, with how many times it took an integer
    kernel and built a ``SubtorusBasis``, and each flat it tested with the
    answer of ``_support_nonempty``, in the order of the walk."""
    import stabred.torus as torus

    calls = Counter()
    tested = []
    support_nonempty = torus._support_nonempty

    def recording(x, flat):
        tested.append((flat, support_nonempty(x, flat)))
        return tested[-1][1]

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    with mock.patch.object(torus, "integer_kernel", counting("kernel", integer_kernel)), \
            mock.patch.object(torus, "SubtorusBasis", counting("subtorus", SubtorusBasis)), \
            mock.patch.object(torus, "_support_nonempty", recording):
        report = torus.stabilizer_stratification(x)
    return report, calls, tested


def test_the_walk_takes_one_kernel_per_flat_and_builds_only_the_witnesses():
    # only the points off every coordinate hyperplane survive, so the walk
    # starts at the flat of a*b*c*d, the plane, and tests nothing below it
    names = tuple(v.name for v in RANK2)
    report, calls, tested = counted_stratification(GradedCdga(2, RANK2, excluded=ideal_of(names, "a*b*c*d")))
    assert tested == [(names, True)]
    assert report.max_dim == 0
    assert calls == {"kernel": 1, "subtorus": 1}


@pytest.mark.parametrize("rank, flats", [(2, 4), (3, 6), (4, 8)])
def test_the_charts_of_the_product_of_pairs_test_one_flat_each(rank, flats):
    # each of the 2r charts of the blow-up of the origin of
    # p_0*q_0*...*p_{r-1}*q_{r-1} removes the zeros of one variable, whose
    # flat is nonempty, so the walk stops at its first flat; the chart's
    # other removed generators have a smaller stabilizer dimension than the
    # one the walk stops at, so they take no kernel (2, 3 and 4 per chart
    # when every start was closed before the walk)
    ring = tuple(
        GradedVariable(f"{name}{i}", tuple(sign * (a == i) for a in range(rank)))
        for i in range(rank)
        for name, sign in (("p", 1), ("q", -1))
    )
    x = critical(ring, "*".join(v.name for v in ring))
    (h,) = witness_subtori(stabilizer_stratification(x))
    charts = kirwan_charts(x, h)
    counted = [counted_stratification(chart.cdga) for chart in charts]
    tested = [len(t) for _, _, t in counted]
    kernels = [calls["kernel"] for _, calls, _ in counted]
    assert tested == kernels == [1] * len(charts)
    assert sum(tested) == sum(kernels) == flats


def test_a_truncation_that_is_the_unit_ideal_tests_no_flat():
    # x*y = 1 and x*y = 0 meet nowhere, whatever the removed locus
    ring = (GradedVariable("x", (1,)), GradedVariable("y", (-1,)))
    gens1 = (Generator1("u", (0,), poly("x*y - 1", V)), Generator1("w", (0,), poly("x*y", V)))
    for excluded in (None, ideal_of(V, "x"), ideal_of(V, "x*y")):
        report, calls, tested = counted_stratification(GradedCdga(1, ring, gens1, excluded=excluded))
        assert (report, calls, tested) == ((0, (), ()), {}, [])
        with pytest.raises(NoPositiveDimensionalStabilizer, match="no point outside its removed locus"):
            witness_subtori(report)


def test_unit_excluded_kills_every_stratum():
    base = load_scene("scenes/a2-hyperbolic.json")
    # removed = V(excluded), so the zero ideal removes every point
    x = GradedCdga(base.torus_rank, base.ring_vars, excluded=Ideal.zero(V))
    report, _, tested = counted_stratification(x)
    assert tested == []
    assert report == (0, (), ())


def test_many_variables_of_one_weight_have_one_flat_to_test():
    many = tuple(GradedVariable(f"v{i}", (1,)) for i in range(17))
    report, _, tested = counted_stratification(GradedCdga(1, many))
    assert tested == [((), True)]
    assert report.max_dim == 1


def test_five_hyperbolic_pairs_test_one_root_flat():
    pairs = tuple(GradedVariable(f"{v}{i}", (s,)) for i in range(1, 6) for v, s in (("x", 1), ("y", -1)))
    x = critical(pairs, "+".join(f"x{i}*y{i}" for i in range(1, 6)))
    root, _, tested = counted_stratification(x)
    assert len(tested) == 1
    tree = stabilizer_reduce(x)
    assert tree.stabilizer == root
    # the critical locus is the origin, so the blow-up of it has no point:
    # ten charts, none with a nonempty flat, so none in the tree
    charts = [chart for _, chart in _every_chart(tree)]
    assert len(charts) == 10
    assert all(stabilizer_stratification(chart.cdga).maximal_support == () for chart in charts)
    assert tree.children == ()
    assert list(iter_leaves(tree)) == []


def test_witness_subtorus_is_full_lattice_at_the_origin():
    (witness,) = witness_subtori(stabilizer_stratification(load_scene("scenes/xy.json")))
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
    (witness,) = witness_subtori(report)
    assert witness.vectors == ((1, -1),)


def test_proportional_weights_give_one_flat_and_one_witness():
    # x*y = 0 with the origin removed leaves the two punctured axes; their
    # weights are proportional, so they span one flat with one kernel
    ring = ("x", "y")
    x = GradedCdga(
        2,
        (GradedVariable("x", (1, 1)), GradedVariable("y", (2, 2))),
        (Generator1("w", (3, 3), poly("x*y", ring)),),
        excluded=ideal_of(ring, "x", "y"),
    )
    report = stabilizer_stratification(x)
    assert report.max_dim == 1
    assert report.maximal_support == (("x", "y"),)
    witnesses = witness_subtori(report)
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


def test_saturation_ideal_cap_below_the_first_invariants_raises():
    # the degree-2 invariants a*b and c*d are the positive circuits of the
    # full rank-2 torus
    x = rank2_critical("a*b + c*d - 1")
    J = saturation_ideal(x, SubtorusBasis.full(2))
    assert strings(J.generators) == ("a*b", "c*d")


def test_saturation_ideal_has_no_degree_cap():
    x = critical(STEEP, "x^12*y + z*w")
    J = saturation_ideal(x, SubtorusBasis.full(2))
    assert ideal_equal(J, ideal_of(x.var_names, "x*y", "z*w"))
    # the critical locus is the y axis, where x*y and z*w vanish, so every
    # point of it is unstable: six charts have no point and leave the tree
    tree = stabilizer_reduce(x)
    assert sum(not stabilizer_stratification(c.cdga).maximal_support for _, c in _every_chart(tree)) == 6
    assert list(iter_leaves(tree)) == []


def test_saturation_ideal_is_squarefree():
    # a^1*b^2 is the minimal invariant; the circuit {a, b} gives its radical
    x = GradedCdga(2, (GradedVariable("a", (2, 0)), GradedVariable("b", (-1, 0))))
    h = SubtorusBasis.full(2)
    assert strings(saturation_ideal(x, h).generators) == ("a*b",)
    assert _minimal_invariant_monomials(x, h, cap=6) == [Counter(a=1, b=2)]


def test_saturation_ideal_no_invariants():
    x = GradedCdga(2, (GradedVariable("x", (1, 0)), GradedVariable("y", (-1, -1))))
    assert saturation_ideal(x, SubtorusBasis.full(2)).is_zero()


@pytest.mark.parametrize("rank", range(1, 7))
def test_saturation_ideal_takes_no_integer_kernel(rank, monkeypatch):
    # the full torus of the weights of p_0*q_0*...*p_{r-1}*q_{r-1}, whose
    # positive circuits are the r pairs
    def refused(*args):
        raise AssertionError("saturation_ideal took an integer kernel")

    monkeypatch.setattr(torus, "integer_kernel", refused)
    ring = tuple(
        GradedVariable(f"{name}{i}", tuple(sign * (a == i) for a in range(rank)))
        for i in range(rank)
        for name, sign in (("p", 1), ("q", -1))
    )
    J = saturation_ideal(GradedCdga(rank, ring), SubtorusBasis.full(rank))
    assert strings(J.generators) == tuple(f"p{i}*q{i}" for i in range(rank))


# -- flats against the rank closure and the per-support walk in the full ring ---


def _closure_flats(x, rank):
    """Reference: the flats of one rank as rational-rank closures, in the
    order their first independent spanning subset appears."""
    weights = {v.name: v.weight for v in x.ring_vars}
    flats = []
    for basis in itertools.combinations(x.var_names, rank):
        if any(set(basis) <= set(f) for f in flats):
            continue
        rows = [weights[n] for n in basis]
        if rational_rank(rows) < rank:
            continue
        flats.append(tuple(n for n in x.var_names if rational_rank(rows + [weights[n]]) == rank))
    return flats


def _check_flats_against_closure(y, report, tested):
    """The flats read off kernels are the closure's at every rank, in the
    same order, and the walk, whose tested flats are ``tested``, tests
    exactly the closure's flats up to the rank it stops at, or up to the
    rank of all the weights, that hold the closure of some removed
    generator's variables; none when the truncation is the unit ideal."""
    top = rational_rank([v.weight for v in y.ring_vars])
    closure = [_closure_flats(y, rank) for rank in range(top + 1)]
    levels = [[_closure(y, ())]]
    while levels[-1]:
        levels.append(_covers(y, levels[-1]))
    assert [[flat for flat, _, _ in level] for level in levels[:-1]] == closure
    weights = {v.name: v.weight for v in y.ring_vars}
    for flat, basis, kernel in (triple for level in levels for triple in level):
        assert rational_rank([weights[n] for n in basis]) == len(basis), basis
        assert kernel == integer_kernel([weights[n] for n in flat], y.torus_rank), flat
    assert len(report.witnesses) == len(report.maximal_support)
    for support, witness in zip(report.maximal_support, report.witnesses):
        assert witness.vectors == integer_kernel([weights[n] for n in support], y.torus_rank), support
    stop = y.torus_rank - report.max_dim if report.maximal_support else top
    starts = []
    for g in y.excluded.generators:
        (exps,) = g.terms
        rows = [weights[n] for n, e in zip(y.var_names, exps) if e]
        starts.append({n for n in y.var_names if rational_rank(rows + [weights[n]]) == rational_rank(rows)})
    expected = [f for level in closure[: stop + 1] for f in level if any(s <= set(f) for s in starts)]
    if classical_truncation(y).is_unit():
        expected = []
    assert [flat for flat, _ in tested] == expected


def _full_ring_nonempty(x, truncation, support):
    """Reference stratum test over the whole ring: the variables outside the
    support join the truncation as generators, then the ideal is saturated
    by the support product times each excluded generator, which keeps the
    points whose support is exactly ``support``."""
    names = x.var_names
    outside = tuple(Polynomial.variable(names, n) for n in names if n not in support)
    base = Ideal(names, truncation.generators + outside)
    prod = Polynomial.monomial(names, tuple(int(n in support) for n in names))
    return any(not saturate(base, prod * g).is_unit() for g in x.excluded.generators)


def _reduction_nodes(node):
    yield node
    for _, child in node.children:
        yield from _reduction_nodes(child)


def _every_chart(tree):
    """(node, chart) for each Kirwan chart at each witness of each node of
    ``tree`` with ``max_dim`` > 0: the tree's edges and the charts it left
    out for having no point."""
    for node in _reduction_nodes(tree):
        if node.stabilizer.max_dim > 0:
            for h in witness_subtori(node.stabilizer):
                for chart in kirwan_charts(node.cdga, h):
                    yield node, chart


def _check_against_support_walk(y, report, tested):
    """Compare a stratification with the walk over every variable support:
    the same maximal dimension, the same witnesses in the same order, and
    each flat tested, as ``tested`` records it, is nonempty exactly when
    some support inside it is.
    The reference witnesses are the distinct kernels of the maximal
    supports, in the order the supports are first met."""
    truncation = classical_truncation(y)
    weights = {v.name: v.weight for v in y.ring_vars}
    alive = {
        support: _full_ring_nonempty(y, truncation, support)
        for size in range(len(y.var_names) + 1)
        for support in itertools.combinations(y.var_names, size)
    }
    dims = {s: y.torus_rank - rational_rank([weights[n] for n in s]) for s in alive}
    max_dim = max((dims[s] for s in alive if alive[s]), default=0)
    assert report.max_dim == max_dim
    assert len({flat for flat, _ in tested}) == len(tested)
    for flat, nonempty in tested:
        inside = [s for s in alive if set(s) <= set(flat)]
        assert nonempty == any(alive[s] for s in inside), flat
    if max_dim > 0:
        kernels = []
        for s in alive:
            if alive[s] and dims[s] == max_dim:
                kernel = integer_kernel([weights[n] for n in s], y.torus_rank)
                if kernel not in kernels:
                    kernels.append(kernel)
        assert [h.vectors for h in witness_subtori(report)] == kernels


def _check_each_flat_holds_a_generator(y, tested):
    """Every flat the walk tests, as ``tested`` records it, holds every
    variable of some removed generator, so its stratum test always
    saturates by at least one generator."""
    supports = []
    for g in y.excluded.generators:
        (exps,) = g.terms
        supports.append({n for n, e in zip(y.var_names, exps) if e})
    for flat, _ in tested:
        assert any(s <= set(flat) for s in supports), flat


def _check_against_oracles(y, report):
    again, _, tested = counted_stratification(y)
    assert again == report
    _check_flats_against_closure(y, report, tested)
    _check_each_flat_holds_a_generator(y, tested)
    _check_against_support_walk(y, report, tested)


def _check_tree_against_oracles(tree):
    """Check every node and every chart left out of ``tree``; returns how
    many presentations were checked."""
    met = 0
    for node in _reduction_nodes(tree):
        _check_against_oracles(node.cdga, node.stabilizer)
        met += 1
    for _, chart in _every_chart(tree):
        report = stabilizer_stratification(chart.cdga)
        if not report.maximal_support:
            _check_against_oracles(chart.cdga, report)
            met += 1
    return met


def test_stratum_tests_match_the_full_ring_oracle_on_the_corpus():
    for x in build_corpus():
        _check_tree_against_oracles(stabilizer_reduce(x))


@pytest.mark.parametrize("label", SHIPPED_SCENES + tuple(RANK2_TREES))
def test_stratum_tests_match_the_full_ring_oracle_on_the_scenes(label, tmp_path):
    assert _check_tree_against_oracles(stabilizer_reduce(load_scene(scene_file(label, tmp_path)))) >= 3


def test_stratum_tests_match_the_full_ring_oracle_at_depth_two():
    tree = stabilizer_reduce(rank2_critical("a*b*c*d + a*b"))
    assert tree_depth(tree) == 2
    assert sum(not node.cdga.excluded.is_unit() for node in _reduction_nodes(tree)) == 8
    _check_tree_against_oracles(tree)


def test_stratum_tests_match_the_full_ring_oracle_on_steep():
    # the six depth-2 charts have no point, so they leave the tree, but the
    # oracles still meet them beside its three nodes
    tree = stabilizer_reduce(critical(STEEP, "x^12*y + z*w"))
    assert tree_depth(tree) == 1
    assert _check_tree_against_oracles(tree) == 3 + 6


def test_stratum_tests_match_the_full_ring_oracle_on_octagon():
    _check_tree_against_oracles(stabilizer_reduce(critical(OCTAGON, "a*b + c*d + e*f + g*h")))


def test_stratum_tests_match_the_full_ring_oracle_at_roots_that_fail_to_reduce():
    ring = tuple(v.name for v in RANK2)
    hyperbola = GradedCdga(2, RANK2, (Generator1("w1", (0, 0), poly("a*b + c*d - 1", ring)),))
    for x, witnesses in ((rank2_critical("a*b*c*d"), 1), (hyperbola, 2)):
        report = stabilizer_stratification(x)
        assert len(witness_subtori(report)) == witnesses
        _check_against_oracles(x, report)


# -- saturation ideals against the invariant-monomial enumeration --------------


def _minimal_invariant_monomials(x, subtorus, cap):
    """Reference: the minimal subtorus-invariant monomials in the moving
    variables, sought degree by degree up to ``cap``.  One found at the cap
    itself means a larger one may lie beyond it, so the cap must be raised."""
    weights = {v.name: v.weight for v in x.ring_vars}
    minimal = []
    for degree in range(2, cap + 1):
        for combo in itertools.combinations_with_replacement(weight_split(x, subtorus).moving, degree):
            exps = Counter(combo)
            if any(all(exps[n] >= e for n, e in m.items()) for m in minimal):
                continue
            if all(sum(e * pairing(weights[n], h) for n, e in exps.items()) == 0 for h in subtorus.vectors):
                assert degree < cap, f"an invariant monomial of degree {degree} reaches the cap"
                minimal.append(exps)
    return minimal


def _check_saturation_against_enumeration(tree, cap):
    """On every witness subtorus of every node, the squarefree parts of the
    minimal invariant monomials generate the saturation ideal."""
    met = 0
    for node in _reduction_nodes(tree):
        if node.stabilizer.max_dim == 0:
            continue
        y = node.cdga
        for h in witness_subtori(node.stabilizer):
            squarefree = tuple(
                Polynomial.monomial(y.var_names, tuple(int(n in m) for n in y.var_names))
                for m in _minimal_invariant_monomials(y, h, cap)
            )
            assert ideal_equal(saturation_ideal(y, h), Ideal(y.var_names, squarefree)), (node.id, h)
            met += 1
    return met


def test_saturation_ideal_matches_the_enumeration_on_the_corpus():
    assert sum(_check_saturation_against_enumeration(stabilizer_reduce(x), 10) for x in build_corpus()) == 200


@pytest.mark.parametrize(
    "variables, text, cap, met",
    [
        (RANK2, "a*b*c*d + a*b", 6, 3),
        (RANK2, "a*b + c*d - 1", 6, 1),
        (RANK2, "a^2*b^2 + c*d", 6, 3),
        (SKEW, "a*b + c*d", 6, 1),
        (STEEP, "x^12*y + z*w", 16, 3),
        (OCTAGON, "a*b + c*d + e*f + g*h", 6, 1),
    ],
    ids=["abcd+ab", "ab+cd-1", "a2b2+cd", "ab+cd-skew", "steep", "octagon"],
)
def test_saturation_ideal_matches_the_enumeration_on_rank_two(variables, text, cap, met):
    assert _check_saturation_against_enumeration(stabilizer_reduce(critical(variables, text)), cap) == met


def test_saturation_ideal_matches_the_enumeration_on_a_hypersurface():
    ring = tuple(v.name for v in RANK2)
    x = GradedCdga(2, RANK2, (Generator1("w1", (0, 0), poly("a*b - 1", ring)),))
    assert _check_saturation_against_enumeration(stabilizer_reduce(x), 6) == 1


# -- invariant failures name where they happened -------------------------------


def test_strict_decrease_violation_names_subtorus_supports_and_chart():
    with pytest.raises(StrictDecreaseViolation) as caught:
        stabilizer_reduce(rank2_critical("a*b*c*d"))
    message = str(caught.value)
    assert "'root/a/u_c'" in message
    assert "subtorus [[0, 1]]" in message
    assert "parent maximal flats [['xi', 'u_b']]" in message
    assert "chart chart_u_c" in message
