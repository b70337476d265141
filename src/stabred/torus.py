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
from .ideal import Ideal, _monomial_ideal, saturate
from .intlinalg import hermite_rows, integer_kernel


class StabilizerReport(NamedTuple):
    """The maximal stabilizer dimension and the maximal flats with their
    kernels: ``witnesses[i]`` is the subtorus fixing ``maximal_support[i]``
    pointwise."""

    max_dim: int
    maximal_support: tuple[tuple[str, ...], ...]
    witnesses: tuple[SubtorusBasis, ...]


def _support_nonempty(x: GradedCdga, flat: tuple[str, ...]) -> bool:
    """Whether some point outside the removed locus vanishes on every
    variable off the flat.

    Work in the ring of the flat alone: restricting every polynomial to it
    sets the other variables to zero, and saturating by a candidate
    excluded generator keeps the points where that generator is nonzero.
    A generator each of whose terms uses a variable off the flat restricts
    to zero and keeps no point, so it is skipped on its exponents.  The
    restricted truncation is built once, before the generators are tried:
    the walk tests only flats that hold some generator's variables, so at
    least that one survives and saturates it.

    The truncation enters as its reduced grevlex basis, the one the node
    record and the chart cross-check read, not as its raw differentials.
    Restriction is a surjective ring map, so the image of an ideal is
    generated by the image of any of its generating sets (Cox-Little-
    O'Shea, *Ideals, Varieties, and Algorithms*): the restricted ideal is
    the same, and the smaller, interreduced basis saturates in fewer
    S-pairs.
    """
    off = [i for i, name in enumerate(x.excluded.variables) if name not in flat]
    base = Ideal(flat, tuple(t.restrict(flat) for t in classical_truncation(x).groebner()))
    for g in x.excluded.generators:
        if all(any(exps[i] for i in off) for exps in g.terms):
            continue
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
    """The flats one rank above the flats of ``level``, each once.

    The covers of a flat F partition the variables off F (Oxley, *Matroid
    Theory*, section 1.7), so each variable off F and off every cover of F
    found so far spans a new one with F's basis.
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
    maximal strata.  A point outside the removed locus is nonzero on every
    variable of some excluded generator, all monomials, so only the flats
    holding the flat of some generator's variables can be nonempty: the
    walk starts at those flats and goes up through their covers.  A start
    is closed, which takes one integer kernel, only when the walk reaches
    its stabilizer dimension, read off the rank of its weights.  Within a
    rank the flats are tested in the order of their variables in the ring.
    A presentation whose truncation is the unit ideal has no point, and one
    whose excluded ideal is zero has every point removed: neither tests a
    flat.
    """
    if x.excluded.generators and classical_truncation(x).is_unit():
        return StabilizerReport(0, (), ())
    position = {v: i for i, v in enumerate(x.var_names)}
    # the supports of the removed generators, each once, by the stabilizer
    # dimension of their flats
    starts = {}
    for g in x.excluded.generators:
        (exps,) = g.terms
        basis = tuple(v for v, e in zip(x.var_names, exps) if e)
        dim = x.torus_rank - len(hermite_rows([x.weight_of(n) for n in basis]))
        starts.setdefault(dim, {})[basis] = None
    level = []
    for dim in range(x.torus_rank, -1, -1):
        candidates = {}
        for basis in starts.get(dim, ()):
            t = _closure(x, basis)
            candidates.setdefault(t[0], t)
        for t in _covers(x, level):
            candidates.setdefault(t[0], t)
        level = sorted(candidates.values(), key=lambda t: [position[v] for v in t[0]])
        maximal = [(f, SubtorusBasis(x.torus_rank, k)) for f, _, k in level if _support_nonempty(x, f)]
        if maximal:
            supports, kernels = zip(*maximal)
            return StabilizerReport(dim, supports, kernels)
    return StabilizerReport(0, (), ())


def witness_subtori(report: StabilizerReport) -> tuple[SubtorusBasis, ...]:
    """The subtori stabilizing the maximal strata pointwise: the kernels of
    the maximal flats as the stratification built them, one per flat, since
    a flat is every variable its kernel fixes.  A presentation with no point
    outside its removed locus has no stratum, so no subtorus either."""
    if not report.maximal_support:
        raise NoPositiveDimensionalStabilizer("the presentation has no point outside its removed locus")
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
    return _monomial_ideal(x.var_names, (tuple(int(n in s) for n in x.var_names) for s in rays))
