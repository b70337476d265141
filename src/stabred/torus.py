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

from .cdga import GradedCdga, SubtorusBasis, classical_truncation, pairing
from .errors import DegreeCapReached, NoPositiveDimensionalStabilizer, TooManyVariables
from .ideal import Ideal, intersect, saturate
from .intlinalg import integer_kernel, rational_rank
from .poly import Polynomial
from .scene import SceneOptions

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

    Pass to the locus where exactly the support variables are nonzero:
    impose the vanishing of the complement, then saturate away the support
    hyperplanes and the candidate excluded generator together.
    """
    names = x.var_names
    outside = [Polynomial.variable(names, n) for n in names if n not in support]
    base = Ideal(names, tuple(truncation.generators) + tuple(outside))
    prod = Polynomial.constant(names, 1)
    for n in support:
        prod = prod * Polynomial.variable(names, n)
    for g in x.excluded.generators:
        if not saturate(base, prod * g).is_unit():
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
            dim = x.torus_rank - (rational_rank(rows) if rows else 0)
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


def _moving_names(x: GradedCdga, subtorus: SubtorusBasis) -> tuple[str, ...]:
    return tuple(v.name for v in x.ring_vars if any(pairing(v.weight, h) for h in subtorus.vectors))


def _rank_one_saturation(x: GradedCdga, subtorus: SubtorusBasis) -> Ideal:
    """For a one-parameter subtorus the unstable locus splits by sign.

    Points limiting to the fixed locus under t -> 0 have all-positive
    pairings on their support; the other limit has all-negative ones.  The
    saturation ideal cuts both out at once, so it is the intersection of
    the two coordinate ideals, and vanishes when either side is empty.
    """
    h = subtorus.vectors[0]
    names = x.var_names
    plus = [v.name for v in x.ring_vars if pairing(v.weight, h) > 0]
    minus = [v.name for v in x.ring_vars if pairing(v.weight, h) < 0]
    if not plus or not minus:
        return Ideal.zero(names)
    return intersect(Ideal.of_variables(names, plus), Ideal.of_variables(names, minus))


def saturation_ideal(
    x: GradedCdga, subtorus: SubtorusBasis, degree_cap: int = SceneOptions.degree_cap
) -> Ideal:
    """Invariant-monomial obstruction to contracting the moving directions.

    Generated by the minimal subtorus-invariant monomials in the moving
    variables; a point where one of them survives cannot flow into the
    fixed locus.  Minimal generators are sought degree by degree up to
    ``degree_cap``; finding one at the cap itself means the enumeration
    may be incomplete and raises.
    """
    if subtorus.rank == 1:
        return _rank_one_saturation(x, subtorus)
    names = x.var_names
    moving = _moving_names(x, subtorus)
    weights = {v.name: v.weight for v in x.ring_vars}
    minimal: list[dict[str, int]] = []
    at_cap = False
    for degree in range(2, degree_cap + 1):
        for combo in itertools.combinations_with_replacement(moving, degree):
            exps: dict[str, int] = {}
            for n in combo:
                exps[n] = exps.get(n, 0) + 1
            if any(all(exps.get(n, 0) >= m.get(n, 0) for n in m) for m in minimal):
                continue
            ok = True
            for h in subtorus.vectors:
                if sum(e * pairing(weights[n], h) for n, e in exps.items()):
                    ok = False
                    break
            if ok:
                minimal.append(exps)
                if degree == degree_cap:
                    at_cap = True
    if at_cap:
        raise DegreeCapReached(
            f"a minimal invariant monomial appeared at the degree cap {degree_cap}"
        )
    gens = []
    for exps in minimal:
        mono = Polynomial.constant(names, 1)
        for n, e in exps.items():
            mono = mono * Polynomial.variable(names, n) ** e
        gens.append(mono)
    return Ideal(names, tuple(gens))
