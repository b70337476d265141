"""Exception types shared across the package.

Every error derives from exactly one of two bases.  ``DomainError`` is a
refusal of the input (bad input, missing center); ``InternalError`` is a
breached invariant (a division that must succeed but did not, a stabilizer
dimension that failed to drop).  The command line maps the former to exit
code 1 and the latter to exit code 3.
"""


class StabredError(Exception):
    pass


class DomainError(StabredError):
    """The input is outside what the package accepts; exit code 1."""


class InternalError(StabredError):
    """An invariant of the package failed; exit code 3."""


class NotDivisible(InternalError):
    """Exact division hit a term the divisor does not divide."""


class InvalidPresentation(DomainError):
    """An operation required a valid presentation and got violations instead."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.message for v in report.violations[:3])
        super().__init__(f"invalid presentation: {lines}")


class SchemaError(DomainError):
    """A scene file does not match the expected JSON shape."""


class ParseError(DomainError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownVariable(DomainError):
    """A name in polynomial text that is not a declared variable."""

    def __init__(self, name, line, column):
        self.name = name
        self.line = line
        self.column = column
        super().__init__(f"unknown variable {name!r} at line {line}, column {column}")


class NoCenter(DomainError):
    """A blow-up was requested but no ring variable moves under the subtorus."""


class NoPositiveDimensionalStabilizer(DomainError):
    """The locus with positive-dimensional stabilizer was requested but is empty."""


class DaggerViolation(DomainError):
    """A moving degree-2 generator has a differential coefficient outside the moving ideal."""


class StrictDecreaseViolation(InternalError):
    """A blow-up chart failed to lower the maximal stabilizer dimension."""
