"""Stabilizer stratification and saturation for torus actions.

A point's stabilizer depends only on the flat its support spans: the set
of variables whose weights lie in the rational span of the weights of the
support.  The stabilizer of a point is then the kernel of that flat, of
dimension the torus rank minus the flat's rank.  Finding the locus of
maximal stabilizer dimension and the subtori witnessing it drives the
choice of blow-up centers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cdga import GradedCdga, SubtorusBasis, classical_truncation, pairing, weight_split
from .errors import NoPositiveDimensionalStabilizer
from .ideal import Ideal, saturate
from .intlinalg import integer_kernel, rational_rank
from .poly import Polynomial


@dataclass(frozen=True)
class Stratum:
    support: tuple[str, ...]
    stabilizer_dim: int
    nonempty: bool


@dataclass(frozen=True)
class StabilizerReport:
    strata: tuple[Stratum, ...]
    max_dim: int
    maximal_support: tuple[tuple[str, ...], ...]


def _support_nonempty(x: GradedCdga, truncation: Ideal, flat: tuple[str, ...]) -> bool:
    """Whether some point outside the removed locus vanishes on every
    variable off the flat.

    Work in the ring of the flat alone: restricting every polynomial to it
    sets the other variables to zero, and saturating by a candidate
    excluded generator keeps the points where that generator is nonzero.
    """
    base = Ideal(flat, tuple(g.restrict(flat) for g in truncation.generators))
    return any(not saturate(base, g.restrict(flat)).is_unit() for g in x.excluded.generators)


def _flats(names: tuple[str, ...], weights: dict, rank: int) -> list[tuple[str, ...]]:
    """The flats of the given rank, in the order their first independent
    spanning subset appears among the combinations of ``names``."""
    flats: list[tuple[str, ...]] = []
    for basis in itertools.combinations(names, rank):
        if any(set(basis) <= set(f) for f in flats):
            continue
        rows = [weights[n] for n in basis]
        if rational_rank(rows) < rank:
            continue
        flats.append(tuple(n for n in names if rational_rank(rows + [weights[n]]) == rank))
    return flats


def stabilizer_stratification(x: GradedCdga) -> StabilizerReport:
    """Test the flats by increasing rank and stop at the first nonempty rank.

    A point lies on the locus of a rank-k flat exactly when its stabilizer
    contains the flat's kernel, so the first rank with a nonempty flat gives
    the maximal stabilizer dimension, and its nonempty flats are the
    maximal strata.  The strata list every flat tested.
    """
    weights = {v.name: v.weight for v in x.ring_vars}
    truncation = classical_truncation(x)
    strata: list[Stratum] = []
    for rank in range(rational_rank(list(weights.values())) + 1):
        dim = x.torus_rank - rank
        level = [
            Stratum(flat, dim, _support_nonempty(x, truncation, flat))
            for flat in _flats(x.var_names, weights, rank)
        ]
        strata.extend(level)
        maximal = tuple(s.support for s in level if s.nonempty)
        if maximal:
            return StabilizerReport(tuple(strata), dim, maximal)
    return StabilizerReport(tuple(strata), 0, ())


def witness_subtori(x: GradedCdga, report: StabilizerReport) -> tuple[SubtorusBasis, ...]:
    """The distinct subtori stabilizing the maximal strata pointwise.

    Each maximal flat yields the saturated integer kernel of its weight
    matrix; kernels are deduplicated by their canonical basis.
    """
    if report.max_dim <= 0:
        raise NoPositiveDimensionalStabilizer(
            "every surviving stratum has a finite stabilizer"
        )
    weights = {v.name: v.weight for v in x.ring_vars}
    out: list[SubtorusBasis] = []
    seen = set()
    for support in report.maximal_support:
        rows = [weights[n] for n in support]
        canon = integer_kernel(rows, x.torus_rank)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(SubtorusBasis(x.torus_rank, canon))
    return tuple(out)


def saturation_ideal(x: GradedCdga, subtorus: SubtorusBasis) -> Ideal:
    """The ideal whose zeros are the points unstable for the subtorus.

    By Hilbert-Mumford a point is unstable exactly when 0 is not in the
    convex hull of the pairings of its moving variables with the subtorus,
    that is, when no monomial in those variables is invariant.  Every
    invariant monomial is a product of positive circuits: sets of at most
    ``rank + 1`` moving variables whose pairings have a one-dimensional
    kernel spanned by a vector of one sign with no zero entry.  The
    squarefree monomials of the positive circuits generate the radical of
    the invariant-monomial ideal, so they cut out the same points, with no
    degree bound.  For a one-parameter subtorus the circuits are the pairs
    of one positive and one negative variable.
    """
    names = x.var_names
    weights = {v.name: v.weight for v in x.ring_vars}
    pairings = {
        n: tuple(pairing(weights[n], h) for h in subtorus.vectors)
        for n in weight_split(x, subtorus).moving
    }
    gens = []
    for size in range(1, subtorus.rank + 2):
        for circuit in itertools.combinations(pairings, size):
            rows = list(zip(*(pairings[n] for n in circuit)))
            kernel = integer_kernel(rows, size)
            # the Hermite form makes the first entry positive, so a kernel
            # of one sign with no zero entry is all positive
            if len(kernel) == 1 and all(c > 0 for c in kernel[0]):
                exps = tuple(int(n in circuit) for n in names)
                gens.append(Polynomial.monomial(names, exps))
    return Ideal(names, tuple(gens))
