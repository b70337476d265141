"""Shared test helpers: parsing shorthand, the random scene corpus, and
linear-algebra oracles used to cross-check the kernel."""

import functools
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from stabred import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Ideal,
    NotDivisible,
    ObstructionReport,
    StabilizerReport,
    SubtorusBasis,
    dagger_check,
    from_invariant_function,
    intersect,
    monomial_ideal,
    parse_polynomial,
    saturate,
    saturation_ideal,
    serialize_scene,
    validate_presentation,
)
import stabred.ideal
from stabred.cdga import is_fixed_weight, pairing, weight_split
from stabred.groebner import divide
from stabred.intlinalg import integer_kernel
from stabred.poly import GREVLEX, ElimOrder, Polynomial
from stabred.report import leaves_document
from stabred.torus import _closure, _covers, _support_nonempty

CORPUS_SEED = 20260815
CORPUS_SIZE = 200

BENCH_SCENES = Path(__file__).resolve().parent.parent / "bench" / "scenes.py"
BENCH_SEED = 20260815

FULL1 = SubtorusBasis.full(1)


def poly(text, variables):
    return parse_polynomial(text, tuple(variables))


def ideal_of(variables, *texts):
    variables = tuple(variables)
    return Ideal(variables, tuple(parse_polynomial(t, variables) for t in texts))


def strings(polys):
    return tuple(p.to_string() for p in polys)


def refuse_buchberger(monkeypatch):
    """Make every Buchberger run an ``Ideal`` asks for fail the test."""

    def refused(generators, order=None):
        raise AssertionError(f"buchberger called on {strings(generators)}")

    monkeypatch.setattr(stabred.ideal, "buchberger", refused)


def leaf_reports(tree):
    """The obstruction report of each reported leaf of ``tree``, by id, as
    ``leaves_document`` gives it to the ``report`` command."""
    return {
        record["id"]: ObstructionReport(
            record["vdim"],
            None if record["e_ranks"] is None else tuple(record["e_ranks"]),
            record["quasi_smooth"],
        )
        for record in leaves_document(tree)["leaves"]
    }


def is_canonical(c):
    """A coefficient in the kernel's one stored form: an ``int``, or a
    ``Fraction`` that is not integral; never a float, never zero."""
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


SHIPPED_SCENES = ("a2-hyperbolic", "a2-positive", "darboux-x2y2", "xy", "xy2-x2y")
# every scene file under scenes/: the shipped scenes and corpus-r1's r1-014
SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"


# -- random corpus ----------------------------------------------------------

_VAR_POOL = ("x", "y", "z")
_COEFFS = (-3, -2, -1, 1, 2, 3)


def _random_exponents(rng, nvars, max_degree):
    degree = rng.randint(1, max_degree)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _random_homogeneous(rng, names, weights, max_degree=4):
    """Nonzero polynomial whose terms all share one rank-1 weight."""
    lead = _random_exponents(rng, len(names), max_degree)
    target = sum(e * w for e, w in zip(lead, weights))
    terms = {lead: Fraction(rng.choice(_COEFFS))}
    for _ in range(rng.randint(0, 4)):
        exps = _random_exponents(rng, len(names), max_degree)
        if exps not in terms and sum(e * w for e, w in zip(exps, weights)) == target:
            terms[exps] = Fraction(rng.choice(_COEFFS))
    return Polynomial(names, terms), (target,)


def random_scene(rng):
    """Random valid rank-1 presentation with at least one moving variable.

    Degree-2 generators, when present, are Koszul pairs e with
    d(e) = d(b)·a - d(a)·b, so the composite differential vanishes
    identically.  Pairs whose coefficients would break the
    moving-coefficient condition for the full torus are dropped.
    """
    while True:
        names = _VAR_POOL[: rng.randint(1, 3)]
        weights = tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in names)
        if any(weights):
            break
    ring_vars = tuple(GradedVariable(n, (w,)) for n, w in zip(names, weights))
    gens1 = []
    for i in range(rng.randint(0, 3)):
        if rng.random() < 0.15:
            weight = (rng.choice((-2, -1, 0, 1, 2)),)
            gens1.append(Generator1(f"w{i + 1}", weight, Polynomial.zero(names)))
            continue
        diff, weight = _random_homogeneous(rng, names, weights)
        gens1.append(Generator1(f"w{i + 1}", weight, diff))
    gens1 = tuple(gens1)
    scene = GradedCdga(1, ring_vars, gens1)
    live = [g for g in gens1 if not g.differential.is_zero()]
    if len(live) >= 2 and rng.random() < 0.5:
        a, b = sorted(rng.sample(live, 2), key=gens1.index)
        pair = Generator2(
            "e1",
            (a.weight[0] + b.weight[0],),
            ((a.name, b.differential), (b.name, -a.differential)),
        )
        candidate = GradedCdga(1, ring_vars, gens1, (pair,))
        if dagger_check(candidate, FULL1):
            scene = candidate
    report = validate_presentation(scene)
    assert report.ok, report.violations
    return scene


def build_corpus(size=CORPUS_SIZE, seed=CORPUS_SEED):
    rng = random.Random(seed)
    return tuple(random_scene(rng) for _ in range(size))


# -- rank-2 trees -------------------------------------------------------------

_RANK2 = (("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1)), ("d", (0, -1)))
_SKEW = _RANK2[:2] + (("c", (1, 1)), ("d", (-1, -1)))

# The rank-2 scenes that reduce, with depth-2 trees, carried exclusions and
# several charts per node: label -> (weights, invariant function, critical).
# A critical scene is the derived critical locus of the function; the other
# kind has the function as its one weight-zero degree-1 differential.
RANK2_TREES = {
    "crit-abcd+ab": (_RANK2, "a*b*c*d+a*b", True),
    "crit-ab+cd-1": (_RANK2, "a*b+c*d-1", True),
    "crit-a2b2+cd": (_RANK2, "a^2*b^2+c*d", True),
    "crit-ab+cd-skew": (_SKEW, "a*b+c*d", True),
    "hyp-ab-1": (_RANK2, "a*b-1", False),
}


def rank2_tree_scene_file(label, directory):
    """Write the ``RANK2_TREES`` scene ``label`` as ``<directory>/<label>.json``
    with ``serialize_scene``, two-space indented and newline-terminated."""
    spec, f, critical = RANK2_TREES[label]
    variables = tuple(GradedVariable(n, w) for n, w in spec)
    function = parse_polynomial(f, tuple(n for n, _ in spec))
    if critical:
        scene = from_invariant_function(variables, 2, function)
    else:
        scene = GradedCdga(2, variables, (Generator1("w1", (0, 0), function),))
    path = directory / f"{label}.json"
    path.write_text(json.dumps(serialize_scene(scene), indent=2) + "\n", encoding="utf-8")
    return path


def scene_file(label, directory):
    """The path of a shipped scene, or of a ``RANK2_TREES`` scene written
    under ``directory``."""
    if label in SHIPPED_SCENES:
        return f"scenes/{label}.json"
    return rank2_tree_scene_file(label, directory)


# -- reference rank -----------------------------------------------------------


def rational_rank(rows) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions,
    independent of the integer kernel the package uses."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    cols = len(matrix[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = Fraction(1) / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


# -- reference order keys ----------------------------------------------------


def reference_key(order, variables):
    """The sort key of ``order`` as the kernel computed it before its keys
    became flat tuples: a larger key means a larger monomial."""
    if isinstance(order, ElimOrder):
        return _reference_elim_key(order, variables)
    if order.kind == "lex":
        return tuple
    return lambda exps: (sum(exps), tuple(-e for e in reversed(exps)))


def _reference_elim_key(self, variables):
    front = set(self.front)
    fi = tuple(i for i, v in enumerate(variables) if v in front)
    ri = tuple(i for i, v in enumerate(variables) if v not in front)

    def key_fn(exps):
        fe = tuple(exps[i] for i in fi)
        re_ = tuple(exps[i] for i in ri)
        return (
            sum(fe),
            tuple(-x for x in reversed(fe)),
            sum(re_),
            tuple(-x for x in reversed(re_)),
        )

    return key_fn


# -- reference ring maps -----------------------------------------------------


def pull_back(p, target, images, shift=None):
    """Apply the monomial ring map sending the i-th variable of ``p`` to the
    monomial with exponents ``images[i]`` in ``target``, then multiply by
    the monomial ``shift``: a general exponent rewrite, which sums the terms
    that land on one monomial and drops zero sums.  A negative entry of
    ``shift`` divides by that monomial, and a term left with a negative
    exponent raises NotDivisible.  The package's chart maps are the
    injective case of this, which sums nothing.
    """
    target = tuple(target)
    if len(images) != len(p.variables):
        raise ValueError(f"{len(images)} images for {len(p.variables)} variables")
    start = list(shift) if shift is not None else [0] * len(target)
    out = {}
    for exps, c in p.terms.items():
        e = list(start)
        for k, image in zip(exps, images):
            for j, a in enumerate(image):
                e[j] += k * a
        if min(e, default=0) < 0:
            divisor = Polynomial.monomial(target, [max(-s, 0) for s in start])
            raise NotDivisible(f"{divisor} does not divide the pull-back of {p}")
        key = tuple(e)
        out[key] = out.get(key, 0) + c
    return Polynomial(target, out)


def chart_images(chart, source):
    """The exponents in the chart ring of the image of each ``source``
    variable under the chart map, read off ``center_var`` and ``slopes``
    by name: the center goes to xi, the first chart variable, every other
    moving m to xi*u_m, each fixed variable to itself."""
    ring = chart.cdga.var_names
    slope_of = dict(chart.slopes)
    images = []
    for v in source:
        e = [0] * len(ring)
        if v == chart.center_var or v in slope_of:
            e[0] = 1
        if v != chart.center_var:
            e[ring.index(slope_of.get(v, v))] = 1
        images.append(tuple(e))
    return tuple(images)


def substitute(p, images, target):
    """Apply the ring map sending each variable of ``p`` to ``images[name]``,
    by multiplying out powers of the images: the general ring map that
    ``pull_back`` specialises to monomial images.

    Variables without an image must exist in ``target`` and map to
    themselves.  All image polynomials must live in the target ring.
    """
    target = tuple(target)
    base = {}
    for name in p.variables:
        if name in images:
            if images[name].variables != target:
                raise ValueError(f"image of {name!r} is not in the target ring")
            base[name] = images[name]
        else:
            base[name] = Polynomial.variable(target, name)
    result = Polynomial.zero(target)
    for exps, c in p.terms.items():
        term = Polynomial.constant(target, c)
        for name, e in zip(p.variables, exps):
            if e:
                term = term * base[name] ** e
        result = result + term
    return result


def evaluate(p, point):
    """The value of ``p`` at ``point``, a map from each variable to a rational."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        value = Fraction(c)
        for name, e in zip(p.variables, exps):
            if e:
                value *= Fraction(point[name]) ** e
        total += value
    return total


def total_degree(p):
    """The largest total degree of a term of ``p``; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


# -- positive circuits by a subset scan -------------------------------------


def positive_circuits_by_subsets(x, subtorus):
    """The unstable locus of ``x`` for ``subtorus`` by the subset scan that
    ``saturation_ideal`` replaced: every set of at most ``rank + 1`` moving
    variables whose pairings have a one-dimensional integer kernel spanned by
    a vector of one sign with no zero entry is a positive circuit."""
    names = x.var_names
    weights = {v.name: v.weight for v in x.ring_vars}
    pairings = {
        n: tuple(pairing(weights[n], h) for h in subtorus.vectors)
        for n in weight_split(x, subtorus).moving
    }
    exponents = []
    for size in range(1, subtorus.rank + 2):
        for circuit in itertools.combinations(pairings, size):
            rows = list(zip(*(pairings[n] for n in circuit)))
            kernel = integer_kernel(rows, size)
            # the Hermite form makes the first entry positive, so a kernel
            # of one sign with no zero entry is all positive
            if len(kernel) == 1 and all(c > 0 for c in kernel[0]):
                exponents.append(tuple(int(n in circuit) for n in names))
    return monomial_ideal(names, exponents)


# -- the stratification by the walk over every flat --------------------------


def bottom_up_stratification(x):
    """The stratification by the walk that ``stabilizer_stratification``
    replaced: from the flat of no variable up through the covers of each
    rank, testing every flat of a rank in the order the covers meet it and
    stopping at the first rank with a nonempty flat."""
    level = [_closure(x, ())]
    while level:
        maximal = [(f, SubtorusBasis(x.torus_rank, k)) for f, _, k in level if _support_nonempty(x, f)]
        if maximal:
            supports, kernels = zip(*maximal)
            return StabilizerReport(kernels[0].rank, supports, kernels)
        level = _covers(x, level)
    return StabilizerReport(0, (), ())


# -- Kirwan chart exclusion by saturation ------------------------------------


def kirwan_exclusion_by_saturation(parent, chart):
    """A Kirwan chart's removed locus by the general route: pull the
    parent's unstable locus back along ``chart.phi``, saturate it by the
    exceptional variable, and intersect with the parent's exclusion
    transformed the same way, the exclusion the blow-up carries."""
    ring = chart.cdga.var_names
    images = dict(chart.phi)
    xi = Polynomial.variable(ring, chart.cdga.ring_vars[0].name)

    def strict_transform(ideal):
        return saturate(Ideal(ring, tuple(substitute(p, images, ring) for p in ideal.generators)), xi)

    unstable = strict_transform(saturation_ideal(parent, chart.subtorus))
    return intersect(unstable, strict_transform(parent.excluded))


# -- relation matrices by division -------------------------------------------


def lambda_matrix(fs, gs, order=GREVLEX):
    """Write each f as a combination of the gs by ordered division: one row
    of quotients per f.  Raises ValueError when a division leaves a
    remainder."""
    rows = []
    for i, f in enumerate(fs):
        quotients, remainder = divide(f, list(gs), order)
        if not remainder.is_zero():
            raise ValueError(f"entry {i} is not reducible to zero by the given list")
        rows.append(tuple(quotients))
    return tuple(rows)


def chart_truncation_via_lambda(lam, moving, chart):
    """Chart truncation induced by a relation matrix over the parent ring.

    Each row's homogeneous coordinates are evaluated in the chart: the
    center's coordinate becomes 1 and the others become slope variables.
    Any valid matrix for the same differentials induces the same ideal.
    """
    ring = chart.cdga.var_names
    slope_of = dict(chart.slopes)
    out = []
    for row in lam:
        acc = Polynomial.zero(ring)
        for coeff, m in zip(row, moving):
            if coeff.is_zero():
                continue
            coordinate = None
            if m != chart.center_var:
                coordinate = tuple(int(v == slope_of[m]) for v in ring)
            acc = acc + pull_back(coeff, ring, chart_images(chart, coeff.variables), coordinate)
        out.append(acc)
    return Ideal(ring, tuple(out))


def rees_relations_by_division(rp, order):
    """The (0,1) and (1,1) relations of the Rees presentation ``rp``, built
    in its ring from λ-matrices of the moving differentials against the
    moving variables: each quotient times its variable's coordinate."""
    x, subtorus = rp.base, rp.subtorus
    gs = [Polynomial.variable(x.var_names, v.source) for v in rp.homog_vars[1:]]
    coordinates = [Polynomial.variable(rp.ring, v.name) for v in rp.homog_vars[1:]]

    def homogenized(row):
        terms = (c.extend(rp.ring) * v for c, v in zip(row, coordinates))
        return sum(terms, Polynomial.zero(rp.ring))

    relations = []
    for g in x.gens1:
        if not is_fixed_weight(g.weight, subtorus):
            (row,) = lambda_matrix([g.differential], gs, order)
            relations.append((0, 1, homogenized(row)))
    for g in x.gens2:
        if not is_fixed_weight(g.weight, subtorus):
            lam = lambda_matrix([coeff for _, coeff in g.differential], gs, order)
            element = Polynomial.zero(rp.ring)
            for (target, _), row in zip(g.differential, lam):
                element = element + homogenized(row) * Polynomial.variable(rp.ring, target)
            relations.append((1, 1, element))
    return relations


# -- linear-algebra membership oracle ---------------------------------------

ORACLE_BOUNDS = (2, 4, 6)
ORACLE_CEILING = 10


def monomials_up_to(nvars, degree):
    out = []
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out.append(exps)
    return out


def _linear_solvable(columns, target):
    """Consistency of A·c = b over the rationals by Gaussian elimination.

    Rows are kept as sparse dicts; the columns the oracle builds rarely
    have more than two entries, so elimination touches little of the
    matrix.  After the sweep every surviving row is supported on the
    target column alone, so consistency is its absence.
    """
    width = len(columns)
    by_key = {}
    for j, col in enumerate(columns):
        for key, value in col.items():
            if value:
                by_key.setdefault(key, {})[j] = value
    for key, value in target.items():
        if value:
            by_key.setdefault(key, {})[width] = value
    rows = [row for _, row in sorted(by_key.items())]
    for col in range(width):
        pivot = next((r for r, row in enumerate(rows) if col in row), None)
        if pivot is None:
            continue
        head = rows.pop(pivot)
        lead = head[col]
        reduced = []
        for row in rows:
            entry = row.get(col)
            if entry is None:
                reduced.append(row)
                continue
            factor = entry / lead
            merged = dict(row)
            for j, v in head.items():
                w = merged.get(j, 0) - factor * v
                if w:
                    merged[j] = w
                else:
                    merged.pop(j, None)
            if merged:
                reduced.append(merged)
        rows = reduced
    return not any(width in row for row in rows)


def oracle_member(f, generators, bounds=ORACLE_BOUNDS):
    """Certificate search: f = sum of h_i·g_i with deg h_i bounded.

    Solved as a linear system in the unknown coefficients of the h_i,
    entirely independent of the Groebner machinery.
    """
    gens = [g for g in generators if not g.is_zero()]
    if f.is_zero():
        return True
    if not gens:
        return False
    nvars = len(f.variables)
    target = dict(f.terms)
    for bound in bounds:
        columns = []
        for g in gens:
            for exps in monomials_up_to(nvars, bound):
                shifted = {
                    tuple(a + b for a, b in zip(exps, mon)): coeff
                    for mon, coeff in g.terms.items()
                }
                columns.append(shifted)
        if _linear_solvable(columns, target):
            return True
    return False


@functools.cache
def bench_workload(name):
    """The scene documents of the benchmark workload ``name``, by label, as
    ``bench/scenes.py`` draws them with the benchmark's seed."""
    spec = importlib.util.spec_from_file_location("bench_scenes", BENCH_SCENES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.WORKLOADS[name](BENCH_SEED))
