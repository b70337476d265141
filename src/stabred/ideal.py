"""Ideals over the rational polynomial rings: membership, equality,
saturation by a single polynomial, elimination and intersection.

Saturation and intersection go through an auxiliary variable and a block
elimination order; everything reduces to Buchberger bases at desk scale.
Ideals generated by monomials, which is every removed locus the blow-up
pipeline builds and many truncations, need no Buchberger call: their
reduced basis in any order is their minimal monomials, and they have their
own constructor and intersection on exponents.
"""

from __future__ import annotations

from .groebner import buchberger, normal_form
from .poly import ElimOrder, Exponents, GREVLEX, Polynomial, monomial_divides, monomial_lcm


class Ideal:
    """Finitely generated ideal.  Generators keep their given order; zero
    generators are dropped.  Groebner bases are cached per order; the basis
    of an ideal generated by monomials is read off its generators."""

    __slots__ = ("variables", "generators", "_bases")

    def __init__(self, variables, generators=()):
        self.variables = tuple(variables)
        gens = []
        for g in generators:
            if g.variables != self.variables:
                raise ValueError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._bases = {}

    @classmethod
    def zero(cls, variables) -> "Ideal":
        return cls(variables, ())

    @classmethod
    def unit(cls, variables) -> "Ideal":
        variables = tuple(variables)
        return cls(variables, (Polynomial.constant(variables, 1),))

    def groebner(self, order=GREVLEX) -> tuple[Polynomial, ...]:
        basis = self._bases.get(order)
        if basis is None:
            if all(len(g.terms) == 1 for g in self.generators):
                basis = _minimal_monomials(self.variables, _monomial_exponents(self), order)
            else:
                basis = buchberger(self.generators, order)
            self._bases[order] = basis
        return basis

    def contains(self, f: Polynomial) -> bool:
        """Membership, by the normal form modulo the grevlex basis."""
        if f.is_zero():
            return True
        return normal_form(f, self.groebner(), GREVLEX).is_zero()

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        if _has_constant(self):
            return True
        return bool(self.generators) and self.groebner()[0].is_constant()

    def __eq__(self, other):
        """Same ring and same generator list; use ideal_equal for the
        mathematical comparison."""
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.variables == other.variables and self.generators == other.generators

    __hash__ = None

    def __repr__(self):
        gens = ", ".join(g.to_string() for g in self.generators) or "0"
        return f"Ideal({gens})"


def _has_constant(ideal: Ideal) -> bool:
    """A nonzero constant among the generators: the unit ideal, seen
    without computing a basis."""
    return any(g.is_constant() for g in ideal.generators)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equal reduced grevlex bases, which are unique to each ideal; equal
    generator lists need no basis."""
    if a.variables != b.variables:
        raise ValueError("ideals live in different rings")
    return a.generators == b.generators or a.groebner() == b.groebner()


def fresh_name(base: str, taken) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def eliminate(ideal: Ideal, names) -> Ideal:
    """Intersect with the subring omitting ``names``.

    The elimination order restricted to the monomials free of ``names`` is
    grevlex on the remaining variables, so the kept basis elements are the
    reduced grevlex basis of the result, already sorted; it is cached."""
    names = tuple(names)
    if not names:
        return Ideal(ideal.variables, ideal.generators)
    remaining = tuple(v for v in ideal.variables if v not in names)
    order = ElimOrder(front=names)
    kept = []
    for g in ideal.groebner(order):
        if any(g.uses(n) for n in names):
            continue
        kept.append(g.restrict(remaining))
    result = Ideal(remaining, kept)
    result._bases[GREVLEX] = result.generators
    return result


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """The saturation (I : f^inf), computed with an inverted auxiliary variable.

    (0 : f^inf) = 0 and (1 : f^inf) = 1 return the ideal itself, as does a
    constant f."""
    if f.variables != ideal.variables:
        raise ValueError("saturating polynomial lives in a different ring")
    if f.is_zero():
        # every element is annihilated by some power of zero
        return Ideal.unit(ideal.variables)
    if f.is_constant() or ideal.is_zero() or _has_constant(ideal):
        return ideal
    aux = fresh_name("_s", ideal.variables)
    extended = ideal.variables + (aux,)
    gens = [g.extend(extended) for g in ideal.generators]
    gens.append(
        Polynomial.variable(extended, aux) * f.extend(extended)
        - Polynomial.constant(extended, 1)
    )
    return eliminate(Ideal(extended, gens), (aux,))


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Ideal intersection via the one-parameter interpolation trick.

    I ∩ (1) = I and I ∩ 0 = 0 return one of the two ideals."""
    if a.variables != b.variables:
        raise ValueError("ideals live in different rings")
    if a.is_zero() or _has_constant(b):
        return a
    if b.is_zero() or _has_constant(a):
        return b
    aux = fresh_name("_t", a.variables)
    extended = a.variables + (aux,)
    t = Polynomial.variable(extended, aux)
    one = Polynomial.constant(extended, 1)
    gens = [t * g.extend(extended) for g in a.generators]
    gens += [(one - t) * g.extend(extended) for g in b.generators]
    return eliminate(Ideal(extended, gens), (aux,))


def _minimal_monomials(variables, exponents, order) -> tuple[Polynomial, ...]:
    """The minimal monomials among the exponent tuples, monic and sorted by
    descending ``order`` key: the reduced basis in that order of the ideal
    they generate, as Buchberger would return it."""
    minimal: list[Exponents] = []
    # a proper divisor has a smaller total degree, so it comes first
    for e in sorted(set(map(tuple, exponents)), key=sum):
        if not any(monomial_divides(m, e) for m in minimal):
            minimal.append(e)
    minimal.sort(key=order.key(variables), reverse=True)
    return tuple(Polynomial.monomial(variables, e) for e in minimal)


def monomial_ideal(variables, exponents) -> Ideal:
    """The ideal generated by the monomials with the given exponent tuples.

    Only the minimal monomials are kept, monic and sorted by descending
    grevlex key: the reduced grevlex basis."""
    variables = tuple(variables)
    return Ideal(variables, _minimal_monomials(variables, exponents, GREVLEX))


def _monomial_exponents(ideal: Ideal) -> tuple[Exponents, ...]:
    """The exponent tuple of each generator of an ideal generated by
    monomials; a generator with more than one term raises ValueError."""
    exponents = []
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise ValueError(f"{g.to_string()} is not a monomial")
        exponents.extend(g.terms)
    return tuple(exponents)


def monomial_intersection(a: Ideal, b: Ideal) -> Ideal:
    """The intersection of two ideals generated by monomials: the minimal
    lcms of one generator of each (Cox-Little-O'Shea, *Ideals, Varieties,
    and Algorithms*, ch. 4 §3)."""
    if a.variables != b.variables:
        raise ValueError("ideals live in different rings")
    pairs = [monomial_lcm(e, f) for e in _monomial_exponents(a) for f in _monomial_exponents(b)]
    return monomial_ideal(a.variables, pairs)
