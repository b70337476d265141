"""Weighted blow-up charts and Rees presentations for a subtorus center.

The center of every construction here is the subtorus-fixed locus.  The
Rees presentation deforms the ambient presentation to the normal cone of
the center; the charts cover the blow-up, one per moving ring variable,
each obtained by inverting that variable's homogeneous coordinate.  The
classical cross-check recomputes every chart's degree-0 quotient from
classical data alone and compares.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .cdga import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    SubtorusBasis,
    Weight,
    WeightSplit,
    classical_truncation,
    dagger_check,
    homogeneous_weight,
    is_fixed_weight,
    require_valid,
    weight_split,
)
from .errors import DaggerViolation, NoCenter, NotDivisible
# ``saturate`` is not called here: bench/selftest.py checks that the tracer
# patches this module's binding of it
from .ideal import (
    Ideal,
    _monomial_ideal,
    fresh_names,
    ideal_equal,
    saturate,
)
from .poly import Exponents, Polynomial, monomial_lcm
from .torus import saturation_ideal


def _center_split(x: GradedCdga, subtorus: SubtorusBasis) -> WeightSplit:
    """The fixed and moving names of a valid presentation whose moving
    degree-2 data vanishes on the center of ``subtorus``."""
    require_valid(x)
    if not dagger_check(x, subtorus):
        raise DaggerViolation(
            "a moving degree-2 differential does not vanish on the center of "
            f"subtorus {[list(v) for v in subtorus.vectors]}"
        )
    return weight_split(x, subtorus)


class ReesVariable(NamedTuple):
    name: str
    weight: Weight
    homogeneous_degree: int
    source: str | None = None


class ReesRelation(NamedTuple):
    homological_degree: int
    homogeneous_degree: int
    element: Polynomial


class ReesPresentation(NamedTuple):
    """Presentation of the extended Rees algebra of the center inclusion.

    Relation elements live in the ring extended by ``t_inv``, the
    homogeneous coordinates, and the degree-1 generator names; setting
    ``t_inv`` to 1 recovers the ambient presentation, while the degree-0
    part at ``t_inv`` = 0 presents the center.
    """

    base: GradedCdga
    subtorus: SubtorusBasis
    t_inv: str
    homog_vars: tuple[ReesVariable, ...]
    relations: tuple[ReesRelation, ...]
    ring: tuple[str, ...]


def rees_presentation(x: GradedCdga, subtorus: SubtorusBasis) -> ReesPresentation:
    """Deformation of the presentation to the normal cone of the fixed locus.

    Degree-(0,0) relations identify each moving variable with ``t_inv``
    times its homogeneous coordinate; each moving degree-1 generator
    contributes its differential rewritten in homogeneous coordinates; each
    moving degree-2 generator contributes its differential with the moving
    variable of every coefficient replaced likewise.  Fixed generators ride
    along untouched.  The rewrite trades each term's first moving variable
    for that variable's coordinate, one exponent rewrite per term.
    """
    moving = _center_split(x, subtorus).moving
    t_name, *v_names = fresh_names(["t_inv"] + [f"v_{m}" for m in moving], x.names)

    ring = x.var_names + (t_name, *v_names) + tuple(g.name for g in x.gens1)
    zero_rank = (0,) * x.torus_rank
    homog_vars = [ReesVariable(t_name, zero_rank, -1)]
    for m, v in zip(moving, v_names):
        homog_vars.append(ReesVariable(v, x.weight_of(m), 1, source=m))

    def var(name: str) -> Polynomial:
        return Polynomial.variable(ring, name)

    relations = []
    for m, v in zip(moving, v_names):
        relations.append(ReesRelation(0, 0, var(t_name) * var(v) - var(m)))

    position = {name: i for i, name in enumerate(ring)}
    # each moving variable's position and its coordinate's, in ring order
    swaps = [(position[m], position[v]) for m, v in zip(moving, v_names)]
    padding = (0,) * (len(ring) - len(x.var_names))

    def homogenized(pairs) -> Polynomial:
        """The sum over ``(p, target)`` of ``p`` times the degree-1 generator
        ``target`` (none for 1), each term's first moving variable traded
        for its coordinate.  Distinct terms land on distinct monomials."""
        terms = {}
        for p, target in pairs:
            for exps, c in p.terms.items():
                e = list(exps + padding)
                # _center_split has checked that every term has a moving variable
                i, j = next(swap for swap in swaps if exps[swap[0]])
                e[i] -= 1
                e[j] += 1
                if target is not None:
                    e[position[target]] += 1
                terms[tuple(e)] = c
        return Polynomial._from_clean(ring, terms)

    for g in x.gens1:
        if not is_fixed_weight(g.weight, subtorus):
            relations.append(ReesRelation(0, 1, homogenized([(g.differential, None)])))
    for g in x.gens2:
        if not is_fixed_weight(g.weight, subtorus):
            pairs = ((coeff, target) for target, coeff in g.differential)
            relations.append(ReesRelation(1, 1, homogenized(pairs)))

    return ReesPresentation(x, subtorus, t_name, tuple(homog_vars), tuple(relations), ring)


class Chart(NamedTuple):
    """One affine piece of the blow-up, where a chosen moving variable's
    homogeneous coordinate is inverted.  The chart ring starts with the
    exceptional coordinate xi, weighted like the center; the name is read
    off ``center_var``, and the reduction tree records which node lists
    the chart."""

    cdga: GradedCdga
    center_var: str
    slopes: tuple[tuple[str, str], ...]
    phi: tuple[tuple[str, Polynomial], ...]
    subtorus: SubtorusBasis

    @property
    def name(self) -> str:
        return f"chart_{self.center_var}"


def _chart_map(source, ring, center, slopes):
    """The chart map from the parent ring ``source`` into the chart ring
    ``ring``, on exponent tuples: the one place that knows the chart ring's
    layout, xi first, then the slopes u_m in ``slopes`` order, then the
    fixed variables.

    The map sends the center to xi, every other moving m to xi*u_m and each
    fixed variable to itself.  So one gather picks each chart variable's
    parent exponent (xi takes the center's), and xi's exponent is the sum
    of the picked moving exponents.  The parent exponents can be read back
    from the chart's, so no two terms land on one monomial and a pull-back
    sums nothing.  Returns two functions:

    * ``pull(p, k)``, the pull-back of ``p`` times xi^k; at k = -1 a term
      without xi raises NotDivisible;
    * ``strict(ideal)``, the exponent tuples of the strict transform of an
      ideal generated by monomials: xi's exponent zeroed, which is the
      saturation by xi, the map x_c -> 1, x_m -> u_m.
    """
    position = {name: i for i, name in enumerate(source)}
    width = 1 + len(slopes)
    picked = [position[v] for v in (center, *(m for m, _ in slopes), *ring[width:])]
    # itemgetter of one index returns an int; a one-variable ring is the
    # center alone, and its gather is the identity
    gather = itemgetter(*picked) if len(picked) > 1 else tuple

    def pull(p: Polynomial, k: int = 0) -> Polynomial:
        terms = {(sum((g := gather(e))[:width]) + k, *g[1:]): c for e, c in p.terms.items()}
        # the least exponent tuple holds the least exponent of xi
        if k < 0 and terms and min(terms)[0] < 0:
            raise NotDivisible(f"{ring[0]} does not divide the pull-back of {p}")
        return Polynomial._from_clean(ring, terms)

    def strict(ideal: Ideal) -> list[Exponents]:
        return [(0, *gather(e)[1:]) for g in ideal.generators for e in g.terms]

    return pull, strict


def _charts(x: GradedCdga, subtorus: SubtorusBasis, unstable: Ideal) -> tuple[Chart, ...]:
    """Blow up the subtorus-fixed locus; one chart per moving ring variable.

    In the chart at x_m the exceptional coordinate replaces x_m and every
    other moving variable acquires a slope coordinate against it.  The
    chart map is monomial and injective on monomials, so ``_chart_map``
    builds it once per chart as one exponent gather per term, and every
    pull-back here, ``phi`` included, goes through it.  Moving generator
    differentials lose one exceptional factor; fixed degree-2 differentials
    compensate the rescaling of their moving targets.  The chart removes
    the strict transforms of ``unstable`` and of the parent's removed
    locus.  Both are monomial ideals (``require_valid`` refuses any other
    exclusion), so each strict transform is the gathered exponents with
    xi's zeroed, and their union is the minimal pairwise lcms.
    """
    split = _center_split(x, subtorus)
    if not split.moving:
        raise NoCenter(f"subtorus {[list(v) for v in subtorus.vectors]} moves no ring variable")

    # whether the subtorus moves each generator is decided once, for every chart
    moves1 = [not is_fixed_weight(g.weight, subtorus) for g in x.gens1]
    moves2 = [not is_fixed_weight(g.weight, subtorus) for g in x.gens2]
    moving1 = {g.name for g, moves in zip(x.gens1, moves1) if moves}
    variables = [Polynomial.variable(x.var_names, v) for v in x.var_names]

    charts = []
    for center in sorted(split.moving):
        w_center = x.weight_of(center)
        others = [m for m in split.moving if m != center]
        xi_name, *u_names = fresh_names(["xi"] + [f"u_{m}" for m in others], x.names)
        slopes = tuple(zip(others, u_names))

        ring_vars = [GradedVariable(xi_name, w_center)]
        for m, u in slopes:
            ring_vars.append(
                GradedVariable(u, tuple(a - b for a, b in zip(x.weight_of(m), w_center)))
            )
        for v in x.ring_vars:
            if v.name in split.fixed:
                ring_vars.append(v)
        ring = tuple(v.name for v in ring_vars)
        pull, strict = _chart_map(x.var_names, ring, center, slopes)

        def chart_weight(weight: Weight, moves: bool) -> Weight:
            """A generator's weight in the chart; a moved one loses one xi
            factor, so its weight drops by the center's."""
            return tuple(a - b for a, b in zip(weight, w_center)) if moves else weight

        gens1 = [
            Generator1(g.name, chart_weight(g.weight, moves), pull(g.differential, -moves))
            for g, moves in zip(x.gens1, moves1)
        ]

        gens2 = []
        for g, moves in zip(x.gens2, moves2):
            # a moving target's differential lost one xi, so its coefficient gains one
            diff = tuple(
                (target, pull(coeff, (target in moving1) - moves)) for target, coeff in g.differential
            )
            gens2.append(Generator2(g.name, chart_weight(g.weight, moves), diff))

        carried = strict(x.excluded)
        excluded = _monomial_ideal(ring, [monomial_lcm(e, f) for e in strict(unstable) for f in carried])
        cdga = GradedCdga(x.torus_rank, tuple(ring_vars), tuple(gens1), tuple(gens2), excluded)
        phi = tuple(zip(x.var_names, map(pull, variables)))
        charts.append(Chart(cdga, center, slopes, phi, subtorus))
    return tuple(charts)


def blowup_charts(x: GradedCdga, subtorus: SubtorusBasis) -> tuple[Chart, ...]:
    """The blow-up charts, each carrying only what the parent removed: the
    unstable locus is the unit ideal, whose one exponent tuple is zero."""
    return _charts(x, subtorus, Ideal.unit(x.var_names))


def kirwan_charts(x: GradedCdga, subtorus: SubtorusBasis) -> tuple[Chart, ...]:
    """The blow-up charts with the unstable locus removed as well.

    ``saturation_ideal`` is generated by squarefree monomials in moving
    variables, each pulling back to a power of xi times slopes, so its
    strict transform is its saturation by xi.  A chart with no semistable
    point survives with every point removed; the reduction stratifies it
    and finds no nonempty flat.
    """
    return _charts(x, subtorus, saturation_ideal(x, subtorus))


def crosscheck_truncation(chart: Chart, parent: GradedCdga) -> bool:
    """Recompute the chart's degree-0 quotient from classical data alone.

    The parent's truncation is presented by its reduced Groebner basis,
    which owes nothing to the degree-1 generators and is weight-homogeneous.
    Each element pulls back along the chart's gather, rebuilt by
    ``_chart_map`` from the chart's center and slopes; a moving one also
    loses the exceptional factor each of its monomials carries.  The result
    must agree with the chart's truncation: the classical blow-up against
    the derived one.
    """
    ring = chart.cdga.var_names
    pull, _ = _chart_map(parent.var_names, ring, chart.center_var, chart.slopes)
    weights = [v.weight for v in parent.ring_vars]
    recipe = []
    for g in classical_truncation(parent).groebner():
        _, w = homogeneous_weight(g, weights, parent.torus_rank)
        moving = w is not None and not is_fixed_weight(w, chart.subtorus)
        recipe.append(pull(g, -moving))
    return ideal_equal(classical_truncation(chart.cdga), Ideal(ring, tuple(recipe)))
