"""Stabilizer stratification and saturation for torus actions.

The classical points of a presentation fall into strata indexed by their
variable support; a point's stabilizer dimension is the torus rank minus
the rational rank of the weights occurring in its support.  Finding the
locus of maximal stabilizer dimension and the subtori witnessing it
drives the choice of blow-up centers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cdga import GradedCdga, SubtorusBasis, classical_truncation, pairing, weight_split
from .errors import NoPositiveDimensionalStabilizer, TooManyVariables
from .ideal import Ideal, saturate
from .intlinalg import integer_kernel, rational_rank
from .poly import Polynomial

VARIABLE_CAP = 16


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


def _support_nonempty(x: GradedCdga, truncation: Ideal, support: tuple[str, ...]) -> bool:
    """A stratum survives when some excluded generator fails to vanish on it.

    Work in the ring of the support alone: restricting every polynomial to
    it sets the other variables to zero, and saturating by the product of
    the support variables times a candidate excluded generator keeps the
    points where exactly the support is nonzero and that generator is not.
    """
    base = Ideal(support, tuple(g.restrict(support) for g in truncation.generators))
    prod = Polynomial.monomial(support, (1,) * len(support))
    for g in x.excluded.generators:
        if not saturate(base, prod * g.restrict(support)).is_unit():
            return True
    return False


def stabilizer_stratification(x: GradedCdga) -> StabilizerReport:
    """Enumerate supports, compute stabilizer dimensions, and test emptiness.

    Runs over all variable subsets, so the ring is capped at
    ``VARIABLE_CAP`` variables.
    """
    names = x.var_names
    if len(names) > VARIABLE_CAP:
        raise TooManyVariables(
            f"stratification over {len(names)} variables exceeds the cap of {VARIABLE_CAP}"
        )
    truncation = classical_truncation(x)
    weights = {v.name: v.weight for v in x.ring_vars}
    strata = []
    for size in range(len(names) + 1):
        for support in itertools.combinations(names, size):
            rows = [weights[n] for n in support]
            dim = x.torus_rank - rational_rank(rows)
            alive = _support_nonempty(x, truncation, support)
            strata.append(Stratum(support, dim, alive))
    alive = [s for s in strata if s.nonempty]
    max_dim = max((s.stabilizer_dim for s in alive), default=0)
    maximal = tuple(s.support for s in alive if s.stabilizer_dim == max_dim)
    return StabilizerReport(tuple(strata), max_dim, maximal)


def witness_subtori(x: GradedCdga, report: StabilizerReport) -> tuple[SubtorusBasis, ...]:
    """The distinct subtori stabilizing the maximal strata pointwise.

    Each maximal support yields the saturated integer kernel of its weight
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
