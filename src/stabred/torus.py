"""Stabilizer stratification and saturation for torus actions.

A point's stabilizer is the integer kernel of the weights of its support,
and it depends only on the flat the support spans: every variable that
kernel fixes, which is every variable whose weight lies in the rational
span of the support's weights.  The stabilizer has dimension the torus
rank minus the flat's rank.  Finding the locus of maximal stabilizer
dimension and the subtori witnessing it drives the choice of blow-up
centers.
"""

from __future__ import annotations

from typing import NamedTuple

from .cdga import GradedCdga, SubtorusBasis, classical_truncation, pairing, weight_split
from .errors import NoPositiveDimensionalStabilizer
from .ideal import Ideal, monomial_ideal, saturate
from .intlinalg import integer_kernel


class Stratum(NamedTuple):
    support: tuple[str, ...]
    stabilizer_dim: int
    nonempty: bool


class StabilizerReport(NamedTuple):
    """The flats tested, the maximal stabilizer dimension, and the maximal
    flats with their kernels: ``witnesses[i]`` is the subtorus fixing
    ``maximal_support[i]`` pointwise."""

    strata: tuple[Stratum, ...]
    max_dim: int
    maximal_support: tuple[tuple[str, ...], ...]
    witnesses: tuple[SubtorusBasis, ...]


def _support_nonempty(x: GradedCdga, truncation: Ideal, flat: tuple[str, ...]) -> bool:
    """Whether some point outside the removed locus vanishes on every
    variable off the flat.

    Work in the ring of the flat alone: restricting every polynomial to it
    sets the other variables to zero, and saturating by a candidate
    excluded generator keeps the points where that generator is nonzero.
    A generator each of whose terms uses a variable off the flat restricts
    to zero and keeps no point, so it is skipped on its exponents, and the
    truncation is restricted only once some candidate survives.
    """
    off = [i for i, name in enumerate(x.excluded.variables) if name not in flat]
    base = None
    for g in x.excluded.generators:
        if all(any(exps[i] for i in off) for exps in g.terms):
            continue
        if base is None:
            base = Ideal(flat, tuple(t.restrict(flat) for t in truncation.generators))
        if not saturate(base, g.restrict(flat)).is_unit():
            return True
    return False


def _closure(x: GradedCdga, basis: tuple[str, ...]):
    """The flat the basis spans, the basis, and the flat's kernel: the
    saturated integer kernel of the basis' weights, in Hermite form, which
    fixes exactly the variables of the flat."""
    kernel = integer_kernel([x.weight_of(n) for n in basis], x.torus_rank)
    flat = tuple(v.name for v in x.ring_vars if all(pairing(v.weight, h) == 0 for h in kernel))
    return flat, basis, kernel


def _covers(x: GradedCdga, level):
    """The flats one rank above ``level``, in the order of their least bases.

    The covers of a flat F partition the variables off F (Oxley, *Matroid
    Theory*, section 1.7), so each variable off F and off every cover of F
    found so far spans a new one with F's least basis.  A flat's least basis
    extends that of the earliest flat one rank lower inside it, so the walk
    meets each flat first at its least basis.
    """
    covers = []
    for flat, basis, _ in level:
        seen = set(flat).union(*(g for g, _, _ in covers if set(flat) <= set(g)))
        for v in x.var_names:
            if v not in seen:
                covers.append(_closure(x, basis + (v,)))
                seen.update(covers[-1][0])
    return covers


def stabilizer_stratification(x: GradedCdga) -> StabilizerReport:
    """Test the flats by increasing rank and stop at the first nonempty rank.

    A point lies on the locus of a rank-k flat exactly when its stabilizer
    contains the flat's kernel, so the first rank with a nonempty flat gives
    the maximal stabilizer dimension, and its nonempty flats are the
    maximal strata.  The strata list every flat tested, from the flat of no
    variable up by covers to the flat of every variable, which has none.
    """
    truncation = classical_truncation(x)
    strata: list[Stratum] = []
    level = [_closure(x, ())]
    while level:
        tested = [(Stratum(f, len(k), _support_nonempty(x, truncation, f)), k) for f, _, k in level]
        strata.extend(s for s, _ in tested)
        maximal = [(s.support, SubtorusBasis(x.torus_rank, k)) for s, k in tested if s.nonempty]
        if maximal:
            supports, kernels = zip(*maximal)
            return StabilizerReport(tuple(strata), kernels[0].rank, supports, kernels)
        level = _covers(x, level)
    return StabilizerReport(tuple(strata), 0, (), ())


def witness_subtori(report: StabilizerReport) -> tuple[SubtorusBasis, ...]:
    """The subtori stabilizing the maximal strata pointwise: the kernels of
    the maximal flats as the stratification built them, one per flat, since
    a flat is every variable its kernel fixes."""
    if report.max_dim <= 0:
        raise NoPositiveDimensionalStabilizer("every surviving stratum has a finite stabilizer")
    return report.witnesses


def saturation_ideal(x: GradedCdga, subtorus: SubtorusBasis) -> Ideal:
    """The ideal whose zeros are the points unstable for the subtorus.

    By Hilbert-Mumford a point is unstable exactly when 0 is not in the
    convex hull of the pairings of its moving variables with the subtorus,
    that is, when no monomial in those variables is invariant.  The
    squarefree monomials of the positive circuits, the minimal sets of moving
    variables with a positive relation among their pairings p_n, generate the
    radical of the invariant-monomial ideal, so they cut out the same points,
    with no degree bound.  For a one-parameter subtorus the circuits are the
    pairs of one positive and one negative variable.

    The circuits are the supports of the extreme rays of the pointed cone
    {y >= 0 : sum y_n p_n = 0}: extreme rays are its elements of minimal
    support, and a proper subset of a circuit is independent.  Fourier-
    Motzkin elimination (double description, Motzkin et al. 1953) cuts the
    cone one subtorus coordinate at a time: rays (support -> image) that
    vanish there stay, each positive ray joins each negative one, and the
    candidates of minimal support are the new extreme rays.
    """
    rays = {
        frozenset((n,)): tuple(pairing(x.weight_of(n), h) for h in subtorus.vectors)
        for n in weight_split(x, subtorus).moving
    }
    for k in range(subtorus.rank):
        cut = {s: u for s, u in rays.items() if u[k] == 0}
        for s, u in rays.items():
            for t, v in rays.items():
                if u[k] > 0 > v[k]:
                    cut[s | t] = tuple(u[k] * b - v[k] * a for a, b in zip(u, v))
        rays = {s: u for s, u in cut.items() if not any(t < s for t in cut)}
    return monomial_ideal(x.var_names, (tuple(int(n in s) for n in x.var_names) for s in rays))
