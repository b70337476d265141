"""Sparse multivariate polynomials over the rationals.

A polynomial carries its variable tuple and stores terms as a map from
exponent tuples to nonzero coefficients in one canonical form: an ``int``
when the value is integral, otherwise a ``Fraction`` whose denominator is
greater than 1.  Most coefficients met in practice are small integers, and
``int`` arithmetic on them is many times cheaper than ``Fraction``'s; every
operation that can turn a ``Fraction`` integral turns it back into an
``int``, and coefficient division goes through ``coeff_div``.  Instances are
treated as immutable; every operation returns a fresh object.  Mixing
polynomials from different variable tuples is a programming error and
raises.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add, le, neg
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import DomainError

Exponents = tuple[int, ...]
Coefficient = int | Fraction


def coeff_div(a: Coefficient, b: Coefficient) -> Coefficient:
    """The exact quotient ``a / b`` of two coefficients, in canonical form;
    never the float that ``/`` makes of two ints."""
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        q = a / b
        return q.numerator if q.denominator == 1 else q
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def canonical_terms(terms: dict) -> dict:
    """Turn the integral ``Fraction`` values of ``terms`` into ``int`` in place."""
    for exps, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[exps] = c.numerator
    return terms


class MonomialOrder(NamedTuple):
    """A term order, ``lex`` or ``grevlex``, on the declared order of the
    ring's variables; ``ORDERS`` holds the two by name."""

    kind: str

    def key(self, variables: tuple[str, ...]) -> Callable[[Exponents], tuple]:
        """Sort key on exponent tuples; a larger key means a larger monomial."""
        if self.kind == "lex":
            return tuple
        return _grevlex_key


def _grevlex_key(exps: Exponents) -> tuple:
    """The total degree, then the exponents negated from the last variable."""
    return (sum(exps), *map(neg, reversed(exps)))


class _ElimOrderFields(NamedTuple):
    front: tuple[str, ...]


class ElimOrder(_ElimOrderFields):
    """Block order that eliminates ``front``: any monomial touching a front
    variable outranks every monomial free of them, grevlex inside blocks.

    ``front`` is kept as a tuple of names however it is given, so no
    elimination order equals a ``MonomialOrder``, whose one field is a name;
    orders of both kinds key the leads that ``Polynomial.leading`` keeps and
    the bases that ``Ideal.groebner`` keeps."""

    __slots__ = ()

    def __new__(cls, front):
        return tuple.__new__(cls, (tuple(front),))

    @classmethod
    def _make(cls, iterable) -> "ElimOrder":
        return cls(*iterable)

    def key(self, variables: tuple[str, ...]) -> Callable[[Exponents], tuple]:
        """The grevlex keys of the front block and of the rest, joined into
        one flat tuple; the blocks have fixed widths in one ring, so it sorts
        as the pair of keys would."""
        front = set(self.front)
        backwards = range(len(variables) - 1, -1, -1)
        fi = [i for i in backwards if variables[i] in front]
        ri = [i for i in backwards if variables[i] not in front]

        def key_fn(exps):
            f = [-exps[i] for i in fi]
            r = [-exps[i] for i in ri]
            return (-sum(f), *f, -sum(r), *r)

        return key_fn


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")
# The one table of order names: scene options and the --order flag read it.
ORDERS = {order.kind: order for order in (LEX, GREVLEX)}


class Polynomial:
    """A polynomial in a fixed tuple of variables.

    ``terms`` is never mutated after construction, so everything derived
    from it stays valid for the life of the object.  ``leading`` relies on
    this: it keeps its last answer in ``_lead``, tagged with the order asked
    for, and answers a repeated question about that order without a scan.
    Construction leaves ``_lead`` unset.
    """

    __slots__ = ("variables", "terms", "_lead")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Coefficient]):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean: dict[Exponents, Coefficient] = {}
        for exps, coeff in terms.items():
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if not coeff:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not match {width} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _from_clean(cls, variables: tuple[str, ...], terms: dict[Exponents, Coefficient]) -> "Polynomial":
        """Wrap terms that are clean by construction: integer exponent tuples
        of the right width, none negative, canonical nonzero coefficients."""
        p = cls.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls._from_clean(tuple(variables), {})

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, name) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls._from_clean(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "Polynomial":
        return cls(variables, {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if not s:
                terms.pop(exps, None)
            elif type(s) is Fraction and s.denominator == 1:
                terms[exps] = s.numerator
            else:
                terms[exps] = s
        return Polynomial._from_clean(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._from_clean(self.variables, {})
            terms = {e: other * v for e, v in self.terms.items()}
            return Polynomial._from_clean(self.variables, canonical_terms(terms))
        self._check(other)
        out: dict[Exponents, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._from_clean(self.variables, canonical_terms(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n and len(self.terms) == 1:
            # a monomial's power scales its exponents and powers its coefficient
            ((exps, c),) = self.terms.items()
            return Polynomial._from_clean(self.variables, {tuple(e * n for e in exps): c**n})
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # instances hold a dict; identity-free hashing is not supported

    # -- structure ---------------------------------------------------------

    def leading(self, order=GREVLEX) -> tuple[Exponents, Coefficient]:
        cached = getattr(self, "_lead", None)
        if cached is not None and cached[0] == order:
            return cached[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=order.key(self.variables))
        lead = exps, self.terms[exps]
        self._lead = order, lead
        return lead

    def coefficient(self, exps: Exponents) -> Coefficient:
        return self.terms.get(tuple(exps), 0)

    def monic(self, order=GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        exps, lc = self.leading(order)
        if lc == 1:
            return self
        result = self * coeff_div(1, lc)
        # scaling keeps the leading monomial
        result._lead = order, (exps, 1)
        return result

    def uses(self, name: str) -> bool:
        idx = self.variables.index(name)
        return any(e[idx] for e in self.terms)

    def partial(self, name: str) -> "Polynomial":
        """Partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        out: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if not e:
                continue
            dropped = tuple(v - 1 if i == idx else v for i, v in enumerate(exps))
            out[dropped] = out.get(dropped, 0) + c * e
        return Polynomial(self.variables, out)

    # -- ring movement -----------------------------------------------------

    def restrict(self, target: Iterable[str]) -> "Polynomial":
        """The ring map onto ``target`` that sends every other variable to zero.

        Terms using a variable outside ``target`` are dropped; the rest keep
        their coefficients.  Each name in ``target`` must be a variable here.
        """
        target = tuple(target)
        for name in target:
            if name not in self.variables:
                raise ValueError(f"{name!r} is not a variable of {self.variables}")
        positions = [self.variables.index(name) for name in target]
        dropped = [i for i, name in enumerate(self.variables) if name not in target]
        out = {
            tuple(exps[i] for i in positions): c
            for exps, c in self.terms.items()
            if not any(exps[i] for i in dropped)
        }
        return Polynomial._from_clean(target, out)

    def extend(self, target: Iterable[str]) -> "Polynomial":
        """Embed into a larger ring containing every current variable."""
        target = tuple(target)
        positions = [target.index(name) for name in self.variables]
        out: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            e = [0] * len(target)
            for pos, val in zip(positions, exps):
                e[pos] = val
            out[tuple(e)] = c
        return Polynomial._from_clean(target, out)

    # -- printing ----------------------------------------------------------

    def to_string(self, order=GREVLEX) -> str:
        """Canonical text: terms descending in the order, explicit '*' and '^'."""
        if not self.terms:
            return "0"
        keyf = order.key(self.variables)
        pieces = []
        try:
            for exps in sorted(self.terms, key=keyf, reverse=True):
                coeff = self.terms[exps]
                factors = [
                    name if e == 1 else f"{name}^{e}"
                    for name, e in zip(self.variables, exps)
                    if e
                ]
                mag = abs(coeff)
                if factors:
                    body = "*".join(factors)
                    if mag != 1:
                        body = f"{mag}*{body}"
                else:
                    body = str(mag)
                pieces.append((coeff < 0, body))
        except ValueError:
            # the one refusal here: an integer too long to print
            raise DomainError(
                f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
                "the longest integer the interpreter prints"
            ) from None
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))
