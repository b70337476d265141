"""Release gates, one test per criterion.

Each test pins one externally checkable behavior end to end: the worked
blow-up charts, the Rees relations, the hyperbolic-plane reduction, the
derived fixed locus, the Darboux leaf reports, the truncation crosscheck
and invariant suite over the random corpus, and the kernel against the
linear-algebra oracles.  The conftest hook prints one verdict line per
criterion after the run.  Timing bounds are coarse on purpose; they
catch complexity regressions, not scheduler jitter.
"""

import itertools
import random
import time
from fractions import Fraction

from stabred import (
    GradedCdga,
    Ideal,
    blowup_charts,
    classical_truncation,
    crosscheck_truncation,
    fixed_locus,
    ideal_equal,
    iter_leaves,
    load_scene,
    rees_presentation,
    saturate,
    stabilizer_reduce,
    tree_depth,
    validate_presentation,
)
from stabred.cdga import is_fixed_weight, weight_split
from stabred.poly import GREVLEX, LEX, Polynomial

from helpers import (
    FULL1,
    ORACLE_CEILING,
    chart_truncation_via_lambda,
    ideal_of,
    lambda_matrix,
    leaf_reports,
    monomials_up_to,
    oracle_member,
    poly,
    strings,
    total_degree,
)


def test_criterion_1_intrinsic_blowup_charts():
    x = load_scene("scenes/xy2-x2y.json")
    start = time.perf_counter()
    charts = {c.name: c for c in blowup_charts(x, FULL1)}
    truncations = {name: classical_truncation(c.cdga) for name, c in charts.items()}
    elapsed = time.perf_counter() - start
    ring_x = charts["chart_x"].cdga.var_names
    ring_y = charts["chart_y"].cdga.var_names
    assert ideal_equal(truncations["chart_x"], ideal_of(ring_x, "xi^2*u_y", "xi^2*u_y^2"))
    assert ideal_equal(truncations["chart_y"], ideal_of(ring_y, "xi^2*u_x", "xi^2*u_x^2"))
    assert elapsed < 1.0


def test_criterion_2_rees_relations_and_lambda_equivalence():
    x = load_scene("scenes/xy2-x2y.json")
    variables = x.var_names
    start = time.perf_counter()
    rp = rees_presentation(x, FULL1)
    charts = blowup_charts(x, FULL1)
    degree_zero = tuple(
        r.element.to_string()
        for r in rp.relations
        if (r.homological_degree, r.homogeneous_degree) == (0, 0)
    )
    moving = weight_split(x, FULL1).moving
    gs = tuple(Polynomial.variable(variables, n) for n in moving)
    by_division = lambda_matrix(tuple(g.differential for g in x.gens1), gs)
    # the same differentials, each factored through a single center variable
    single_center = (
        (Polynomial.zero(variables), poly("x^2", variables)),
        (poly("y^2", variables), Polynomial.zero(variables)),
    )
    agreements = []
    for chart in charts:
        ours = chart_truncation_via_lambda(by_division, moving, chart)
        theirs = chart_truncation_via_lambda(single_center, moving, chart)
        agreements.append(ideal_equal(ours, theirs))
        agreements.append(ideal_equal(ours, classical_truncation(chart.cdga)))
        agreements.append(crosscheck_truncation(chart, x))
    elapsed = time.perf_counter() - start
    assert degree_zero == ("t_inv*v_x - x", "t_inv*v_y - y")
    assert all(agreements)
    assert elapsed < 1.0


def test_criterion_3_hyperbolic_plane_reduction():
    x = load_scene("scenes/a2-hyperbolic.json")
    start = time.perf_counter()
    tree = stabilizer_reduce(x)
    elapsed = time.perf_counter() - start
    leaves = list(iter_leaves(tree))
    assert tree_depth(tree) == 1
    assert [leaf.id for leaf in leaves] == ["root/x", "root/y"]
    assert all(leaf.stabilizer.max_dim == 0 for leaf in leaves)
    removed = [strings(leaf.cdga.excluded.groebner()) for leaf in leaves]
    assert removed == [("u_y",), ("u_x",)]
    assert elapsed < 1.0


def test_criterion_4_derived_fixed_locus():
    x = load_scene("scenes/xy.json")
    start = time.perf_counter()
    fixed = fixed_locus(x, FULL1)
    elapsed = time.perf_counter() - start
    assert fixed.ring_vars == ()
    assert len(fixed.gens1) == 1
    assert fixed.gens1[0].differential.is_zero()
    assert fixed.gens2 == ()
    assert validate_presentation(fixed).ok
    assert elapsed < 1.0


def test_criterion_5_darboux_leaf_reports():
    x = load_scene("scenes/darboux-x2y2.json")
    start = time.perf_counter()
    tree = stabilizer_reduce(x)
    elapsed = time.perf_counter() - start
    leaves = list(iter_leaves(tree))
    assert leaves
    reports = leaf_reports(tree)
    for leaf in leaves:
        assert leaf.stabilizer.max_dim == 0
        assert leaf.cdga.torus_dagger
        assert reports[leaf.id].vdim == 0
        assert reports[leaf.id].e_ranks == (1, 1)
    assert elapsed < 2.0


def test_criterion_6_truncation_crosscheck_on_corpus(corpus):
    assert len(corpus) == 200
    start = time.perf_counter()
    failures = []
    for i, x in enumerate(corpus):
        charts = blowup_charts(x, FULL1)
        assert charts
        for chart in charts:
            if not crosscheck_truncation(chart, x):
                failures.append((i, chart.name))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 60.0


def test_criterion_7_invariant_suite_on_corpus(corpus):
    for x in corpus:
        fixed = fixed_locus(x, FULL1)
        assert validate_presentation(fixed).ok
        charts = blowup_charts(x, FULL1)
        for chart in charts:
            assert validate_presentation(chart.cdga).ok
        if x.gens2:
            bare = GradedCdga(x.torus_rank, x.ring_vars, x.gens1, ())
            for mine, theirs in zip(charts, blowup_charts(bare, FULL1)):
                assert mine.name == theirs.name
                assert ideal_equal(
                    classical_truncation(mine.cdga),
                    classical_truncation(theirs.cdga),
                )
        else:
            assert all(chart.cdga.gens2 == () for chart in charts)
        moving = weight_split(x, FULL1).moving
        fs = tuple(
            g.differential for g in x.gens1 if not is_fixed_weight(g.weight, FULL1)
        )
        gs = tuple(Polynomial.variable(x.var_names, n) for n in moving)
        by_lex = lambda_matrix(fs, gs, LEX)
        by_grevlex = lambda_matrix(fs, gs, GREVLEX)
        for chart in charts:
            assert ideal_equal(
                chart_truncation_via_lambda(by_lex, moving, chart),
                chart_truncation_via_lambda(by_grevlex, moving, chart),
            )
        tree = stabilizer_reduce(x)
        stack = [tree]
        while stack:
            node = stack.pop()
            if not x.gens2:
                assert node.cdga.gens2 == ()
            for _, child in node.children:
                assert child.stabilizer.max_dim < node.stabilizer.max_dim
                stack.append(child)


ORACLE_VARS = ("x", "y")


def _generator_pool():
    """Monic monomials of degree 1..3 plus equal-degree differences."""
    monomials = [
        Polynomial.monomial(ORACLE_VARS, exps, Fraction(1))
        for exps in monomials_up_to(2, 3)
        if sum(exps) >= 1
    ]
    pool = list(monomials)
    by_degree = {}
    for m in monomials:
        by_degree.setdefault(total_degree(m), []).append(m)
    for _, group in sorted(by_degree.items()):
        for a, b in itertools.combinations(group, 2):
            pool.append(a - b)
    return pool


def _saturation_agrees(ideal, f):
    saturated = saturate(ideal, f)
    if saturated.is_unit():
        # a unit saturation claims exactly that some power of f lies in the ideal
        power = f
        for _ in range(9):
            if oracle_member(power, ideal.generators, bounds=(4, ORACLE_CEILING)):
                return True
            power = power * f
        return False
    for s in saturated.generators:
        cleared = [s]
        for _ in range(4):
            cleared.append(cleared[-1] * f)
        if not any(oracle_member(p, ideal.generators, bounds=(4, 8)) for p in cleared):
            return False
    if not all(oracle_member(g, saturated.generators, bounds=(4, 8)) for g in ideal.generators):
        return False
    for exps in monomials_up_to(2, 2):
        m = Polynomial.monomial(ORACLE_VARS, exps, Fraction(1))
        cleared = m
        truth = False
        for _ in range(5):
            if oracle_member(cleared, ideal.generators, bounds=(3, 6)):
                truth = True
                break
            cleared = cleared * f
        reported = oracle_member(m, saturated.generators, bounds=(3, 6))
        if truth and not reported:
            reported = oracle_member(m, saturated.generators, bounds=(ORACLE_CEILING,))
        if reported != truth:
            return False
        if saturated.contains(m) != truth:
            return False
    return True


def test_criterion_8_kernel_against_oracles():
    start = time.perf_counter()
    pool = _generator_pool()
    ideals = [Ideal(ORACLE_VARS, (g,)) for g in pool]
    ideals += [Ideal(ORACLE_VARS, pair) for pair in itertools.combinations(pool, 2)]
    queries = [
        Polynomial.monomial(ORACLE_VARS, exps, Fraction(1))
        for exps in monomials_up_to(2, 4)
        if sum(exps) >= 1
    ]
    disagreements = []
    for ideal in ideals:
        for q in queries:
            mine = ideal.contains(q)
            confirmed = oracle_member(q, ideal.generators)
            if mine and not confirmed:
                confirmed = oracle_member(q, ideal.generators, bounds=(ORACLE_CEILING,))
            if mine != confirmed:
                disagreements.append(("membership", strings(ideal.generators), q.to_string()))
    rng = random.Random(20260815)
    pairs = [(rng.choice(ideals), rng.choice(ideals)) for _ in range(250)]
    pairs += [
        (ideal, Ideal(ORACLE_VARS, tuple(g * Fraction(3) for g in reversed(ideal.generators))))
        for ideal in rng.sample(ideals, 40)
    ]
    for a, b in pairs:
        mine = ideal_equal(a, b)
        confirmed = all(
            oracle_member(g, b.generators, bounds=(4, ORACLE_CEILING)) for g in a.generators
        ) and all(
            oracle_member(g, a.generators, bounds=(4, ORACLE_CEILING)) for g in b.generators
        )
        if mine != confirmed:
            disagreements.append(("equality", strings(a.generators), strings(b.generators)))
    for ideal in ideals:
        for f_text in ("x", "y", "x*y"):
            if not _saturation_agrees(ideal, poly(f_text, ORACLE_VARS)):
                disagreements.append(("saturation", strings(ideal.generators), f_text))
    elapsed = time.perf_counter() - start
    assert disagreements == []
    assert elapsed < 30.0
