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

import itertools
from dataclasses import dataclass

from .cdga import GradedCdga, SubtorusBasis, classical_truncation, pairing, weight_split
from .errors import NoPositiveDimensionalStabilizer
from .ideal import Ideal, monomial_ideal, saturate
from .intlinalg import hermite_rows, integer_kernel


@dataclass(frozen=True)
class Stratum:
    support: tuple[str, ...]
    stabilizer_dim: int
    nonempty: bool


@dataclass(frozen=True)
class StabilizerReport:
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
    A generator that uses a variable off the flat restricts to zero and
    keeps no point, so it is skipped.
    """
    base = Ideal(flat, tuple(g.restrict(flat) for g in truncation.generators))
    candidates = (g.restrict(flat) for g in x.excluded.generators)
    return any(not saturate(base, g).is_unit() for g in candidates if not g.is_zero())


def _flats(x: GradedCdga, rank: int) -> list[tuple[tuple[str, ...], SubtorusBasis]]:
    """The flats of the given rank, each with its kernel, in the order
    their first independent spanning subset appears among the combinations
    of the variables.

    A subset is independent when its kernel has corank ``rank``, and its
    flat is every variable that kernel fixes: the saturated integer kernel
    of the subset's weights, in Hermite form, is the flat's too.
    """
    flats: list[tuple[tuple[str, ...], SubtorusBasis]] = []
    for basis in itertools.combinations(x.var_names, rank):
        if any(set(basis) <= set(f) for f, _ in flats):
            continue
        kernel = integer_kernel([x.weight_of(n) for n in basis], x.torus_rank)
        if len(kernel) == x.torus_rank - rank:
            subtorus = SubtorusBasis(x.torus_rank, kernel)
            flats.append((weight_split(x, subtorus).fixed, subtorus))
    return flats


def stabilizer_stratification(x: GradedCdga) -> StabilizerReport:
    """Test the flats by increasing rank and stop at the first nonempty rank.

    A point lies on the locus of a rank-k flat exactly when its stabilizer
    contains the flat's kernel, so the first rank with a nonempty flat gives
    the maximal stabilizer dimension, and its nonempty flats are the
    maximal strata.  The strata list every flat tested.  The ranks run up
    to the rank of the weights, the length of their Hermite form.
    """
    truncation = classical_truncation(x)
    strata: list[Stratum] = []
    for rank in range(len(hermite_rows(v.weight for v in x.ring_vars)) + 1):
        dim = x.torus_rank - rank
        level = [
            (Stratum(flat, dim, _support_nonempty(x, truncation, flat)), kernel)
            for flat, kernel in _flats(x, rank)
        ]
        strata.extend(s for s, _ in level)
        maximal = [(s.support, kernel) for s, kernel in level if s.nonempty]
        if maximal:
            supports, kernels = zip(*maximal)
            return StabilizerReport(tuple(strata), dim, supports, kernels)
    return StabilizerReport(tuple(strata), 0, (), ())


def witness_subtori(report: StabilizerReport) -> tuple[SubtorusBasis, ...]:
    """The subtori stabilizing the maximal strata pointwise: the kernel of
    each maximal flat, in the order of the flats, as the stratification
    found them.

    Distinct flats have distinct kernels, since a flat is every variable
    its kernel fixes, so there is one witness per maximal flat.
    """
    if report.max_dim <= 0:
        raise NoPositiveDimensionalStabilizer(
            "every surviving stratum has a finite stabilizer"
        )
    return report.witnesses


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
