"""Sparse multivariate polynomials over the rationals.

A polynomial carries its variable tuple and stores terms as a map from
exponent tuples to nonzero ``Fraction`` coefficients.  Instances are treated
as immutable; every operation returns a fresh object.  Mixing polynomials
from different variable tuples is a programming error and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

Exponents = tuple[int, ...]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MonomialOrder:
    """A term order, ``lex`` or ``grevlex``, on the declared order of the
    ring's variables; ``ORDERS`` holds the two by name."""

    kind: str

    def key(self, variables: tuple[str, ...]) -> Callable[[Exponents], tuple]:
        """Sort key on exponent tuples; a larger key means a larger monomial."""
        if self.kind == "lex":
            return tuple
        return lambda exps: (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class ElimOrder:
    """Block order that eliminates ``front``: any monomial touching a front
    variable outranks every monomial free of them, grevlex inside blocks."""

    front: tuple[str, ...]

    def key(self, variables: tuple[str, ...]) -> Callable[[Exponents], tuple]:
        front = set(self.front)
        fi = tuple(i for i, v in enumerate(variables) if v in front)
        ri = tuple(i for i, v in enumerate(variables) if v not in front)

        def key_fn(exps):
            fe = tuple(exps[i] for i in fi)
            re_ = tuple(exps[i] for i in ri)
            return (
                sum(fe),
                tuple(-x for x in reversed(fe)),
                sum(re_),
                tuple(-x for x in reversed(re_)),
            )

        return key_fn


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")
# The one table of order names: scene options and the --order flag read it.
ORDERS = {order.kind: order for order in (LEX, GREVLEX)}


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction]):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not match {width} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, variables, name) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "Polynomial":
        return cls(variables, {tuple(exps): Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def total_degree(self) -> int:
        # -1 flags the zero polynomial
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
            s = terms.get(exps, _ZERO) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.variables, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # instances hold a dict; identity-free hashing is not supported

    # -- structure ---------------------------------------------------------

    def leading(self, order=GREVLEX) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        keyf = order.key(self.variables)
        exps = max(self.terms, key=keyf)
        return exps, self.terms[exps]

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def monic(self, order=GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, lc = self.leading(order)
        if lc == 1:
            return self
        return self * (Fraction(1) / lc)

    def uses(self, name: str) -> bool:
        idx = self.variables.index(name)
        return any(e[idx] for e in self.terms)

    def partial(self, name: str) -> "Polynomial":
        """Partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if not e:
                continue
            dropped = tuple(v - 1 if i == idx else v for i, v in enumerate(exps))
            out[dropped] = out.get(dropped, _ZERO) + c * e
        return Polynomial(self.variables, out)

    # -- ring movement -----------------------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial"], target: Iterable[str]) -> "Polynomial":
        """Apply the ring map sending each variable to ``images[name]``.

        Variables without an image must exist in ``target`` and map to
        themselves.  All image polynomials must live in the target ring.
        """
        target = tuple(target)
        base: dict[str, Polynomial] = {}
        for i, name in enumerate(self.variables):
            if name in images:
                img = images[name]
                if img.variables != target:
                    raise ValueError(f"image of {name!r} is not in the target ring")
                base[name] = img
            else:
                base[name] = Polynomial.variable(target, name)
        result = Polynomial.zero(target)
        powers: dict[tuple[str, int], Polynomial] = {}
        for exps, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for name, e in zip(self.variables, exps):
                if not e:
                    continue
                cached = powers.get((name, e))
                if cached is None:
                    cached = base[name] ** e
                    powers[(name, e)] = cached
                term = term * cached
            result = result + term
        return result

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
        return Polynomial(target, out)

    def extend(self, target: Iterable[str]) -> "Polynomial":
        """Embed into a larger ring containing every current variable."""
        target = tuple(target)
        positions = [target.index(name) for name in self.variables]
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = [0] * len(target)
            for pos, val in zip(positions, exps):
                e[pos] = val
            out[tuple(e)] = c
        return Polynomial(target, out)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        total = _ZERO
        for exps, c in self.terms.items():
            val = c
            for name, e in zip(self.variables, exps):
                if e:
                    val *= Fraction(point[name]) ** e
            total += val
        return total

    # -- printing ----------------------------------------------------------

    def to_string(self, order=GREVLEX) -> str:
        """Canonical text: terms descending in the order, explicit '*' and '^'."""
        if not self.terms:
            return "0"
        keyf = order.key(self.variables)
        pieces = []
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
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))
