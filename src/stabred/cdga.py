"""Weight-graded differential presentations of affine schemes with a
diagonal torus action.

A presentation has amplitude [-1, 0] plus obstruction cells: a polynomial
ring in degree 0 whose variables carry integer weight vectors, degree-1
generators whose differentials are ring polynomials, and degree-2
generators whose differentials are ring-linear combinations of the
degree-1 generators.  Validity means every differential is
weight-homogeneous with the weight of its generator and the composite
differential vanishes.

Subtori of the acting torus are given by integer basis vectors; a weight
is fixed when it pairs to zero with every basis vector.

The points a presentation has removed are V(``excluded``), the zeros of
its excluded ideal.  The default is the unit ideal, which removes
nothing; the zero ideal removes every point.  A union of removed loci is
the intersection of their ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidPresentation
from .ideal import Ideal
from .intlinalg import integer_kernel
from .poly import Polynomial

Weight = tuple[int, ...]


@dataclass(frozen=True)
class GradedVariable:
    name: str
    weight: Weight


@dataclass(frozen=True)
class Generator1:
    """Degree-1 generator; its differential is a polynomial in the ring variables."""

    name: str
    weight: Weight
    differential: Polynomial


@dataclass(frozen=True)
class Generator2:
    """Degree-2 generator; its differential assigns a ring coefficient to
    each degree-1 generator it hits, in declaration order."""

    name: str
    weight: Weight
    differential: tuple[tuple[str, Polynomial], ...]

    def coefficient(self, target: str) -> Polynomial | None:
        for name, coeff in self.differential:
            if name == target:
                return coeff
        return None


@dataclass(frozen=True)
class SubtorusBasis:
    """Integer vectors spanning a subtorus of the rank-``ambient_rank`` torus."""

    ambient_rank: int
    vectors: tuple[Weight, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(int(x) for x in v) for v in self.vectors))
        for v in self.vectors:
            if len(v) != self.ambient_rank:
                raise ValueError(f"subtorus vector {v} does not have length {self.ambient_rank}")
        # independent exactly when the kernel has the complementary rank
        if self.vectors and (
            len(integer_kernel(self.vectors, self.ambient_rank)) != self.ambient_rank - self.rank
        ):
            raise ValueError("subtorus basis vectors are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @classmethod
    def full(cls, ambient_rank: int) -> "SubtorusBasis":
        vectors = tuple(
            tuple(1 if i == j else 0 for j in range(ambient_rank))
            for i in range(ambient_rank)
        )
        return cls(ambient_rank, vectors)


def pairing(weight: Weight, vector: Weight) -> int:
    return sum(w * h for w, h in zip(weight, vector))


def is_fixed_weight(weight: Weight, subtorus: SubtorusBasis) -> bool:
    return all(pairing(weight, v) == 0 for v in subtorus.vectors)


@dataclass(frozen=True)
class GradedCdga:
    torus_rank: int
    ring_vars: tuple[GradedVariable, ...]
    gens1: tuple[Generator1, ...] = ()
    gens2: tuple[Generator2, ...] = ()
    excluded: Ideal | None = None
    # classical_truncation's ideal, built on first use; never compared or printed
    _truncation: Ideal | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.excluded is None:
            object.__setattr__(self, "excluded", Ideal.unit(self.var_names))

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.ring_vars)

    def weight_of(self, name: str) -> Weight:
        for v in self.ring_vars:
            if v.name == name:
                return v.weight
        raise KeyError(name)

    def gen1(self, name: str) -> Generator1:
        for g in self.gens1:
            if g.name == name:
                return g
        raise KeyError(name)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def monomial_weight(exps, weights) -> Weight:
    rank = len(weights[0]) if weights else 0
    total = [0] * rank
    for e, w in zip(exps, weights):
        if e:
            for a in range(rank):
                total[a] += e * w[a]
    return tuple(total)


def homogeneous_weight(p: Polynomial, weights, rank: int):
    """Return (is_homogeneous, weight); the zero polynomial is homogeneous of
    every weight and reports None."""
    if p.is_zero():
        return True, None
    seen = None
    for exps in p.terms:
        w = monomial_weight(exps, weights) if weights else (0,) * rank
        if len(w) != rank:
            w = tuple(w) + (0,) * (rank - len(w))
        if seen is None:
            seen = w
        elif seen != w:
            return False, None
    return True, seen


def validate_presentation(x: GradedCdga) -> ValidationReport:
    """Check weight gradings and the vanishing of the composite differential.

    Violations are returned as data; nothing raises here.
    """
    problems: list[Violation] = []
    k = x.torus_rank
    if k < 0:
        problems.append(Violation("torus_rank", "", "torus rank must be nonnegative"))
        return ValidationReport(tuple(problems))

    names = [v.name for v in x.ring_vars] + [g.name for g in x.gens1] + [g.name for g in x.gens2]
    seen = set()
    for name in names:
        if not name:
            problems.append(Violation("name", name, "empty generator name"))
        if name in seen:
            problems.append(Violation("name", name, f"duplicate generator name {name!r}"))
        seen.add(name)

    for v in x.ring_vars:
        if len(v.weight) != k:
            problems.append(
                Violation("weight", v.name, f"variable {v.name!r} has weight of length {len(v.weight)}, expected {k}")
            )
    for g in list(x.gens1) + list(x.gens2):
        if len(g.weight) != k:
            problems.append(
                Violation("weight", g.name, f"generator {g.name!r} has weight of length {len(g.weight)}, expected {k}")
            )
    if problems:
        return ValidationReport(tuple(problems))

    ring = x.var_names
    weights = [v.weight for v in x.ring_vars]

    for g in x.gens1:
        if g.differential.variables != ring:
            problems.append(Violation("ring", g.name, f"differential of {g.name!r} lives in the wrong ring"))
            continue
        ok, w = homogeneous_weight(g.differential, weights, k)
        if not ok:
            problems.append(Violation("homogeneity", g.name, f"differential of {g.name!r} is not weight-homogeneous"))
        elif w is not None and w != g.weight:
            problems.append(
                Violation("homogeneity", g.name, f"differential of {g.name!r} has weight {w}, generator has {g.weight}")
            )

    gen1_names = {g.name for g in x.gens1}
    for g in x.gens2:
        composite = Polynomial.zero(ring)
        targets = set()
        for target, coeff in g.differential:
            if target not in gen1_names:
                problems.append(Violation("target", g.name, f"{g.name!r} hits unknown degree-1 generator {target!r}"))
                continue
            if target in targets:
                problems.append(Violation("target", g.name, f"{g.name!r} lists target {target!r} twice"))
                continue
            targets.add(target)
            if coeff.variables != ring:
                problems.append(Violation("ring", g.name, f"coefficient of {g.name!r} on {target!r} lives in the wrong ring"))
                continue
            ok, w = homogeneous_weight(coeff, weights, k)
            expected = tuple(a - b for a, b in zip(g.weight, x.gen1(target).weight))
            if not ok:
                problems.append(
                    Violation("homogeneity", g.name, f"coefficient of {g.name!r} on {target!r} is not weight-homogeneous")
                )
            elif w is not None and w != expected:
                problems.append(
                    Violation(
                        "homogeneity",
                        g.name,
                        f"coefficient of {g.name!r} on {target!r} has weight {w}, expected {expected}",
                    )
                )
            composite = composite + coeff * x.gen1(target).differential
        if not composite.is_zero():
            problems.append(Violation("d_squared", g.name, f"composite differential of {g.name!r} is {composite.to_string()}, not 0"))

    if x.excluded.variables != ring:
        problems.append(Violation("ring", "excluded", "excluded ideal lives in the wrong ring"))

    return ValidationReport(tuple(problems))


def require_valid(x: GradedCdga) -> None:
    report = validate_presentation(x)
    if not report.ok:
        raise InvalidPresentation(report)


def classical_truncation(x: GradedCdga) -> Ideal:
    """The degree-0 quotient: the ideal generated by the degree-1 differentials.

    Degree-2 generators never contribute; they only record obstruction data.
    The ideal is built once and kept on the presentation, so every caller
    shares its cached Groebner bases.
    """
    if x._truncation is None:
        gens = tuple(g.differential for g in x.gens1 if not g.differential.is_zero())
        object.__setattr__(x, "_truncation", Ideal(x.var_names, gens))
    return x._truncation


@dataclass(frozen=True)
class WeightSplit:
    fixed: tuple[str, ...]
    moving: tuple[str, ...]


def weight_split(x: GradedCdga, subtorus: SubtorusBasis) -> WeightSplit:
    """Partition the ring variables by whether the subtorus fixes them."""
    fixed, moving = [], []
    for v in x.ring_vars:
        (fixed if is_fixed_weight(v.weight, subtorus) else moving).append(v.name)
    return WeightSplit(tuple(fixed), tuple(moving))


def fixed_locus(x: GradedCdga, subtorus: SubtorusBasis) -> GradedCdga:
    """The subpresentation fixed by the subtorus.

    Moving ring variables are set to zero in every surviving differential,
    moving generators are dropped, and terms of degree-2 differentials
    through moving degree-1 generators are deleted.  The excluded ideal is
    cut the same way, so the removed points are those of the fixed locus
    that the parent removed.
    """
    require_valid(x)
    if subtorus.ambient_rank != x.torus_rank:
        raise ValueError("subtorus does not match the torus rank")
    split = weight_split(x, subtorus)
    ring = split.fixed
    variables = tuple(v for v in x.ring_vars if v.name in ring)
    gens1 = tuple(
        Generator1(g.name, g.weight, g.differential.restrict(ring))
        for g in x.gens1
        if is_fixed_weight(g.weight, subtorus)
    )
    kept1 = {g.name for g in gens1}
    gens2 = []
    for g in x.gens2:
        if not is_fixed_weight(g.weight, subtorus):
            continue
        cut = ((target, coeff.restrict(ring)) for target, coeff in g.differential if target in kept1)
        diff = tuple((target, coeff) for target, coeff in cut if not coeff.is_zero())
        gens2.append(Generator2(g.name, g.weight, diff))
    excluded = Ideal(ring, tuple(p.restrict(ring) for p in x.excluded.generators))
    return GradedCdga(x.torus_rank, variables, gens1, tuple(gens2), excluded)


def from_invariant_function(variables: tuple[GradedVariable, ...], torus_rank: int, f: Polynomial) -> GradedCdga:
    """Derived critical-locus presentation of an invariant function.

    One degree-1 generator per variable carries the matching partial
    derivative; one degree-2 generator per torus factor carries the
    infinitesimal action, whose composite vanishes by the Euler identity
    for weight-zero functions.
    """
    names = tuple(v.name for v in variables)
    if f.variables != names:
        raise ValueError("function does not live in the declared ring")
    weights = [v.weight for v in variables]
    ok, w = homogeneous_weight(f, weights, torus_rank)
    if not ok or (w is not None and any(w)):
        raise ValueError("function must be invariant (weight zero)")
    taken = set(names)
    gens1 = []
    for v in variables:
        gname = f"w_{v.name}"
        while gname in taken:
            gname += "_"
        taken.add(gname)
        gens1.append(Generator1(gname, tuple(-a for a in v.weight), f.partial(v.name)))
    gens2 = []
    for a in range(torus_rank):
        ename = f"e_{a + 1}"
        while ename in taken:
            ename += "_"
        taken.add(ename)
        diff = []
        for v, g in zip(variables, gens1):
            if v.weight[a]:
                diff.append((g.name, Polynomial.variable(names, v.name) * v.weight[a]))
        gens2.append(Generator2(ename, (0,) * torus_rank, tuple(diff)))
    return GradedCdga(torus_rank, tuple(variables), tuple(gens1), tuple(gens2))


@dataclass(frozen=True)
class TangentRanks:
    torus_rank: int
    ring_rank: int
    gens1_rank: int
    gens2_rank: int
    vdim: int


def tangent_complex_ranks(x: GradedCdga) -> TangentRanks:
    """Rank bookkeeping of the four-term tangent complex at the presentation."""
    vdim = len(x.ring_vars) - len(x.gens1) + len(x.gens2) - x.torus_rank
    return TangentRanks(x.torus_rank, len(x.ring_vars), len(x.gens1), len(x.gens2), vdim)
