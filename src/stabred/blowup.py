"""Weighted blow-up charts and Rees presentations for a subtorus center.

The center of every construction here is the subtorus-fixed locus.  The
Rees presentation deforms the ambient presentation to the normal cone of
the center; the charts cover the blow-up, one per moving ring variable,
each obtained by inverting that variable's homogeneous coordinate.  The
classical cross-check recomputes every chart's degree-0 quotient from
classical data alone and compares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cdga import (
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    SubtorusBasis,
    Weight,
    WeightSplit,
    classical_truncation,
    homogeneous_weight,
    is_fixed_weight,
    require_valid,
    weight_split,
)
from .errors import DaggerViolation, NoCenter, NotInIdeal
from .groebner import divide, exact_divide
from .ideal import Ideal, fresh_name, ideal_equal, intersect, saturate
from .poly import GREVLEX, MonomialOrder, Polynomial


@dataclass(frozen=True)
class LambdaMatrix:
    """Rows express each input polynomial against the ordered divisor list."""

    entries: tuple[tuple[Polynomial, ...], ...]


def lambda_matrix(fs, gs, order: MonomialOrder = GREVLEX) -> LambdaMatrix:
    """Write each f as a combination of the gs by ordered division.

    The division is deterministic, so the matrix is canonical for a given
    divisor order; different orders give different but equally valid
    matrices.
    """
    divisors = list(gs)
    rows = []
    for i, f in enumerate(fs):
        quotients, remainder = divide(f, divisors, order)
        if not remainder.is_zero():
            raise NotInIdeal(i)
        rows.append(tuple(quotients))
    return LambdaMatrix(tuple(rows))


def dagger_check(x: GradedCdga, subtorus: SubtorusBasis) -> bool:
    """Whether the moving degree-2 data restricts to zero on the center.

    Every coefficient of every subtorus-moving degree-2 generator must
    vanish once the moving ring variables are set to zero; equivalently
    each of its monomials contains a moving variable.
    """
    fixed = weight_split(x, subtorus).fixed
    return all(
        coeff.restrict(fixed).is_zero()
        for g in x.gens2
        if not is_fixed_weight(g.weight, subtorus)
        for _, coeff in g.differential
    )


def _center_split(x: GradedCdga, subtorus: SubtorusBasis) -> WeightSplit:
    """The fixed and moving names of a valid presentation whose moving
    degree-2 data vanishes on the center of ``subtorus``."""
    require_valid(x)
    if subtorus.ambient_rank != x.torus_rank:
        raise ValueError("subtorus does not match the torus rank")
    if not dagger_check(x, subtorus):
        raise DaggerViolation(
            "a moving degree-2 differential does not vanish on the center"
        )
    return weight_split(x, subtorus)


@dataclass(frozen=True)
class ReesVariable:
    name: str
    weight: Weight
    homogeneous_degree: int
    source: str | None = None


@dataclass(frozen=True)
class ReesRelation:
    homological_degree: int
    homogeneous_degree: int
    element: Polynomial


@dataclass(frozen=True)
class ReesPresentation:
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


def rees_presentation(
    x: GradedCdga, subtorus: SubtorusBasis, order: MonomialOrder = GREVLEX
) -> ReesPresentation:
    """Deformation of the presentation to the normal cone of the fixed locus.

    Degree-(0,0) relations identify each moving variable with ``t_inv``
    times its homogeneous coordinate; each moving degree-1 generator
    contributes its differential rewritten in homogeneous coordinates; each
    moving degree-2 generator contributes its differential with the moving
    variable of every coefficient replaced likewise.  Fixed generators ride
    along untouched.
    """
    moving = _center_split(x, subtorus).moving

    taken = set(x.var_names)
    taken.update(g.name for g in x.gens1)
    taken.update(g.name for g in x.gens2)
    t_name = fresh_name("t_inv", taken)
    taken.add(t_name)
    v_names = []
    for m in moving:
        v = fresh_name(f"v_{m}", taken)
        taken.add(v)
        v_names.append(v)

    ring = x.var_names + (t_name,) + tuple(v_names) + tuple(g.name for g in x.gens1)
    zero_rank = (0,) * x.torus_rank
    homog_vars = [ReesVariable(t_name, zero_rank, -1)]
    for m, v in zip(moving, v_names):
        homog_vars.append(ReesVariable(v, x.weight_of(m), 1, source=m))

    def var(name: str) -> Polynomial:
        return Polynomial.variable(ring, name)

    v_of = dict(zip(moving, v_names))
    relations = []
    for m in moving:
        relations.append(ReesRelation(0, 0, var(t_name) * var(v_of[m]) - var(m)))

    moving_polys = [Polynomial.variable(x.var_names, m) for m in moving]
    moving_gens1 = [g for g in x.gens1 if not is_fixed_weight(g.weight, subtorus)]
    lam = lambda_matrix([g.differential for g in moving_gens1], moving_polys, order)
    for row in lam.entries:
        element = Polynomial.zero(ring)
        for coeff, m in zip(row, moving):
            element = element + coeff.extend(ring) * var(v_of[m])
        relations.append(ReesRelation(0, 1, element))

    for g in x.gens2:
        if is_fixed_weight(g.weight, subtorus):
            continue
        element = Polynomial.zero(ring)
        for target, coeff in g.differential:
            quotients, remainder = divide(coeff, moving_polys, order)
            if not remainder.is_zero():
                # unreachable once the dagger condition holds
                raise DaggerViolation(
                    f"coefficient of {g.name!r} on {target!r} is not supported on the moving locus"
                )
            for beta, m in zip(quotients, moving):
                element = element + beta.extend(ring) * var(v_of[m]) * var(target)
        relations.append(ReesRelation(1, 1, element))

    return ReesPresentation(x, subtorus, t_name, tuple(homog_vars), tuple(relations), ring)


@dataclass(frozen=True)
class Chart:
    """One affine piece of the blow-up, where a chosen moving variable's
    homogeneous coordinate is inverted."""

    name: str
    cdga: GradedCdga
    exceptional: GradedVariable
    center_var: str
    slopes: tuple[tuple[str, str], ...]
    phi: tuple[tuple[str, Polynomial], ...]
    subtorus: SubtorusBasis
    parent_id: str
    fully_unstable: bool = False


def blowup_charts(
    x: GradedCdga, subtorus: SubtorusBasis, parent_id: str = "root"
) -> tuple[Chart, ...]:
    """Blow up the subtorus-fixed locus; one chart per moving ring variable.

    In the chart at x_m the exceptional coordinate replaces x_m and every
    other moving variable acquires a slope coordinate against it.  Moving
    generator differentials lose one exceptional factor; fixed degree-2
    differentials compensate the rescaling of their moving targets.
    """
    split = _center_split(x, subtorus)
    if not split.moving:
        raise NoCenter("the subtorus moves no ring variable")

    taken = set(x.var_names)
    taken.update(g.name for g in x.gens1)
    taken.update(g.name for g in x.gens2)

    charts = []
    for center in sorted(split.moving):
        w_center = x.weight_of(center)
        local = set(taken)
        xi_name = fresh_name("xi", local)
        local.add(xi_name)
        slopes = []
        for m in split.moving:
            if m == center:
                continue
            u = fresh_name(f"u_{m}", local)
            local.add(u)
            slopes.append((m, u))

        ring_vars = [GradedVariable(xi_name, w_center)]
        for m, u in slopes:
            ring_vars.append(
                GradedVariable(u, tuple(a - b for a, b in zip(x.weight_of(m), w_center)))
            )
        for v in x.ring_vars:
            if v.name in split.fixed:
                ring_vars.append(v)
        ring = tuple(v.name for v in ring_vars)

        xi = Polynomial.variable(ring, xi_name)
        images = {center: xi}
        for m, u in slopes:
            images[m] = xi * Polynomial.variable(ring, u)

        def transplant(p: Polynomial) -> Polynomial:
            return p.substitute(images, ring)

        gens1 = []
        for g in x.gens1:
            if is_fixed_weight(g.weight, subtorus):
                gens1.append(Generator1(g.name, g.weight, transplant(g.differential)))
            else:
                gens1.append(
                    Generator1(
                        g.name,
                        tuple(a - b for a, b in zip(g.weight, w_center)),
                        exact_divide(transplant(g.differential), xi),
                    )
                )
        moving1 = {g.name for g in x.gens1 if not is_fixed_weight(g.weight, subtorus)}

        gens2 = []
        for g in x.gens2:
            rescaled = []
            for target, coeff in g.differential:
                image = transplant(coeff)
                if target in moving1:
                    image = image * xi
                rescaled.append((target, image))
            if is_fixed_weight(g.weight, subtorus):
                gens2.append(Generator2(g.name, g.weight, tuple(rescaled)))
            else:
                divided = tuple((t, exact_divide(c, xi)) for t, c in rescaled)
                gens2.append(
                    Generator2(g.name, tuple(a - b for a, b in zip(g.weight, w_center)), divided)
                )

        # strict transform of the removed locus
        excluded = saturate(Ideal(ring, tuple(transplant(p) for p in x.excluded.generators)), xi)
        cdga = GradedCdga(x.torus_rank, tuple(ring_vars), tuple(gens1), tuple(gens2), excluded)
        images_all = {
            v: images[v] if v in images else Polynomial.variable(ring, v) for v in x.var_names
        }
        charts.append(
            Chart(
                name=f"chart_{center}",
                cdga=cdga,
                exceptional=GradedVariable(xi_name, w_center),
                center_var=center,
                slopes=tuple(slopes),
                phi=tuple(images_all.items()),
                subtorus=subtorus,
                parent_id=parent_id,
            )
        )
    return tuple(charts)


def kirwan_charts(
    x: GradedCdga,
    subtorus: SubtorusBasis,
    saturation: Ideal,
    parent_id: str = "root",
) -> tuple[Chart, ...]:
    """Blow-up charts with the unstable locus removed.

    Each chart removes the strict transform of the saturation locus as
    well as whatever the parent had already removed; the union of the two
    is cut out by the intersection of their ideals.  A zero saturation
    ideal means no point is semistable: the chart survives in the output,
    with every point removed, and is flagged fully unstable.
    """
    charts = []
    for chart in blowup_charts(x, subtorus, parent_id):
        ring = chart.cdga.var_names
        images = dict(chart.phi)
        pulled = Ideal(ring, tuple(p.substitute(images, ring) for p in saturation.generators))
        unstable = saturate(pulled, Polynomial.variable(ring, chart.exceptional.name))
        # blowup_charts already strict-transformed the parent exclusions
        excluded = intersect(unstable, chart.cdga.excluded)
        charts.append(
            replace(
                chart,
                cdga=replace(chart.cdga, excluded=excluded),
                fully_unstable=excluded.is_zero(),
            )
        )
    return tuple(charts)


def crosscheck_truncation(chart: Chart, parent: GradedCdga) -> bool:
    """Recompute the chart's degree-0 quotient from classical data alone.

    The parent's truncation generators are split by their own weights:
    fixed ones pull back, moving ones pull back and lose one exceptional
    factor.  The result must agree with the truncation of the chart
    presentation; this equality is the executable content of the
    comparison between the classical and derived constructions.
    """
    ring = chart.cdga.var_names
    xi = Polynomial.variable(ring, chart.exceptional.name)
    images = dict(chart.phi)
    weights = [v.weight for v in parent.ring_vars]
    recipe = []
    for g in classical_truncation(parent).generators:
        ok, w = homogeneous_weight(g, weights, parent.torus_rank)
        image = g.substitute(images, ring)
        if ok and w is not None and not is_fixed_weight(w, chart.subtorus):
            image = exact_divide(image, xi)
        recipe.append(image)
    return ideal_equal(classical_truncation(chart.cdga), Ideal(ring, tuple(recipe)))


def chart_truncation_via_lambda(lam: LambdaMatrix, moving: tuple[str, ...], chart: Chart) -> Ideal:
    """Chart truncation induced by a relation matrix over the parent ring.

    Each row's homogeneous coordinates are evaluated in the chart: the
    center's coordinate becomes 1 and the others become slope variables.
    Any valid matrix for the same differentials induces the same ideal.
    """
    ring = chart.cdga.var_names
    images = dict(chart.phi)
    slope_of = dict(chart.slopes)
    out = []
    for row in lam.entries:
        acc = Polynomial.zero(ring)
        for coeff, m in zip(row, moving):
            if coeff.is_zero():
                continue
            image = coeff.substitute(images, ring)
            if m != chart.center_var:
                image = image * Polynomial.variable(ring, slope_of[m])
            acc = acc + image
        out.append(acc)
    return Ideal(ring, tuple(out))
