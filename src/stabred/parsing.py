"""Polynomial text parser.

Grammar (no implicit multiplication, whitespace ignored):

    expr        := ['-'] term (('+' | '-') term)*
    term        := factor ('*' factor)*
    factor      := atom ('^' nat)*
    atom        := coefficient | var | '(' expr ')'
    coefficient := nat ('/' positive nat)?
    var         := [A-Za-z_][A-Za-z0-9_]*
    nat         := [0-9]+

A leading '-' negates the first term; every later '+'/'-' is binary.  The
canonical printer in ``Polynomial.to_string`` emits text this grammar
accepts, so print/parse round-trips are exact.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, lcm, log2

from .errors import ParseError, UnknownVariable
from .poly import Polynomial

_INT = "INT"
_NAME = "NAME"
_OP = "OP"
_END = "END"
_DIGITS = "0123456789"
# the grammar's ``var`` rule; scene files hold every name to it too
VAR = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the deepest nesting of parentheses accepted; each level takes four frames
# of the recursive descent, so deeper text is refused with a ParseError
# long before the interpreter's recursion limit
MAX_NESTING = 100
# the most term products one parsed product may form, and the most terms
# one parsed power of a sum may expand to (comb(n+t-1, t-1) bounds the terms
# of the n-th power of t terms); larger text is refused with a ParseError
# at the operator before anything is expanded
MAX_TERMS = 1000
# the largest torus rank a scene may declare; the stratification builds
# r-by-r integer kernels, so a larger rank is refused with a SchemaError
# before any is built
MAX_TORUS_RANK = 64


def _log2_largest(p: Polynomial) -> float:
    """log2 of the largest numerator or denominator of a coefficient of ``p``."""
    top = 1
    for c in p.terms.values():
        top = max(top, abs(c.numerator), c.denominator)
    return log2(top)


def _log2_power_base(p: Polynomial) -> float:
    """A b with every numerator and denominator of a coefficient of p^n at
    most 2^(n*b).  With N the largest numerator of the t terms and L the
    lcm of their denominators, p^n is (sum of t terms with integer
    coefficients at most N*L)^n over L^n, so b = log2(t*N*L)."""
    top = common = 1
    for c in p.terms.values():
        top = max(top, abs(c.numerator))
        common = lcm(common, c.denominator)
    return log2(top * common * max(len(p.terms), 1))


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append((_INT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        name = VAR.match(text, i)
        if name:
            j = name.end()
            tokens.append((_NAME, name.group(), line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((_OP, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append((_END, "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)
        # the interpreter's limit on integer string conversion, which refuses
        # a long literal; 0 means no limit
        self.digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        self.max_log2 = self.digits * log2(10) if self.digits else float("inf")

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, line, col = self.peek()
        what = "end of input" if kind == _END else repr(value)
        raise ParseError(f"unexpected {what}", line, col, expected)

    def match_op(self, op):
        kind, value, _, _ = self.peek()
        return kind == _OP and value == op

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.peek()[0] != _END:
            self.fail(("'+'", "'-'", "'*'", "'^'", "end of input"))
        return result

    def expr(self) -> Polynomial:
        negate = False
        if self.match_op("-"):
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while self.match_op("+") or self.match_op("-"):
            _, op, line, col = self.advance()
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
            self.bound(_log2_largest(result), "sum", line, col)
        return result

    def bound(self, log2_size: float, what: str, line, col, power: int = 1) -> None:
        """Refuse, at its operator, a result whose coefficients may have a
        numerator or denominator of more than ``digits`` digits, when each
        is at most 2^(power*log2_size).  ``power`` is compared, never turned
        into a float: an exponent may have thousands of digits."""
        if log2_size and power >= self.max_log2 / log2_size:
            raise ParseError(f"{what} may have a coefficient of more than {self.digits} digits", line, col)

    def integer(self) -> int:
        """The value of the integer token at the cursor, which it passes; a
        literal too long for ``int`` is a ParseError there."""
        _, value, line, col = self.advance()
        try:
            return int(value)
        except ValueError:
            # past the interpreter's limit on integer string conversion
            raise ParseError(f"integer literal of {len(value)} digits is too long", line, col) from None

    def term(self) -> Polynomial:
        result = self.factor()
        while self.match_op("*"):
            _, _, line, col = self.advance()
            rhs = self.factor()
            if len(result.terms) * len(rhs.terms) > MAX_TERMS:
                raise ParseError(
                    f"product of {len(result.terms)} and {len(rhs.terms)} terms "
                    f"forms more than {MAX_TERMS} term products", line, col
                )
            result = result * rhs
            self.bound(_log2_largest(result), "product", line, col)
        return result

    def factor(self) -> Polynomial:
        result = self.atom()
        while self.match_op("^"):
            _, _, line, col = self.advance()
            if self.peek()[0] != _INT:
                self.fail(("integer exponent",))
            n = self.integer()
            t = len(result.terms)
            # comb(n+t-1, t-1) is at least n+1 and at least t when n > 0
            if t > 1 and n and (max(n + 1, t) > MAX_TERMS or comb(n + t - 1, t - 1) > MAX_TERMS):
                raise ParseError(
                    f"power {n} of {t} terms may expand to more than {MAX_TERMS} terms", line, col
                )
            # a power is bounded before it is built: repeated squaring could
            # take minutes; a sum or a product of at most MAX_TERMS term
            # products of printable coefficients takes milliseconds
            self.bound(_log2_power_base(result), f"power {n}", line, col, power=n)
            result = result**n
        return result

    def atom(self) -> Polynomial:
        kind, value, line, col = self.peek()
        if kind == _INT:
            numerator = self.integer()
            if self.match_op("/"):
                self.advance()
                dkind, _, dline, dcol = self.peek()
                if dkind != _INT:
                    self.fail(("positive integer denominator",))
                denominator = self.integer()
                if denominator == 0:
                    raise ParseError("denominator must be positive", dline, dcol)
                return Polynomial.constant(self.variables, Fraction(numerator, denominator))
            return Polynomial.constant(self.variables, numerator)
        if kind == _NAME:
            self.advance()
            if value not in self.variables:
                raise UnknownVariable(value, line, col)
            return Polynomial.variable(self.variables, value)
        if self.match_op("("):
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, col)
            self.advance()
            self.depth += 1
            inner = self.expr()
            if not self.match_op(")"):
                self.fail(("')'",))
            self.advance()
            self.depth -= 1
            return inner
        self.fail(("integer", "variable", "'('"))


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse ``text`` over the given variables; raises ParseError or
    UnknownVariable with line and column information."""
    return _Parser(text, variables).parse()
