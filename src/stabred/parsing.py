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
from fractions import Fraction

from .errors import ParseError, UnknownVariable
from .poly import Polynomial

_INT = "INT"
_NAME = "NAME"
_OP = "OP"
_END = "END"
_DIGITS = "0123456789"
# the grammar's ``var`` rule; scene files hold every name to it too
VAR = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
        self.variables = tuple(variables)

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
            op = self.advance()[1]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.match_op("*"):
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        result = self.atom()
        while self.match_op("^"):
            self.advance()
            kind, value, _, _ = self.peek()
            if kind != _INT:
                self.fail(("integer exponent",))
            self.advance()
            result = result ** int(value)
        return result

    def atom(self) -> Polynomial:
        kind, value, line, col = self.peek()
        if kind == _INT:
            self.advance()
            numerator = int(value)
            if self.match_op("/"):
                self.advance()
                dkind, dvalue, dline, dcol = self.peek()
                if dkind != _INT:
                    self.fail(("positive integer denominator",))
                if int(dvalue) == 0:
                    raise ParseError("denominator must be positive", dline, dcol)
                self.advance()
                return Polynomial.constant(self.variables, Fraction(numerator, int(dvalue)))
            return Polynomial.constant(self.variables, numerator)
        if kind == _NAME:
            self.advance()
            if value not in self.variables:
                raise UnknownVariable(value, line, col)
            return Polynomial.variable(self.variables, value)
        if self.match_op("("):
            self.advance()
            inner = self.expr()
            if not self.match_op(")"):
                self.fail(("')'",))
            self.advance()
            return inner
        self.fail(("integer", "variable", "'('"))


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse ``text`` over the given variables; raises ParseError or
    UnknownVariable with line and column information."""
    return _Parser(text, variables).parse()
