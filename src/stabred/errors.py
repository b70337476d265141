"""Exception types shared across the package.

Domain-condition failures (bad input, missing center, capped searches) are
distinct from internal invariant breaches (a division that must succeed but
did not, a stabilizer dimension that failed to drop).  The command line maps
the former to exit code 1 and the latter to exit code 3.
"""


class StabredError(Exception):
    pass


class NotDivisible(StabredError):
    """Exact division hit a term the divisor does not divide."""


class NotInIdeal(StabredError):
    """Ordered division left a nonzero remainder."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"entry {index} is not reducible to zero by the given list")


class InvalidPresentation(StabredError):
    """An operation required a valid presentation and got violations instead."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.message for v in report.violations[:3])
        super().__init__(f"invalid presentation: {lines}")


class SchemaError(StabredError):
    """A scene file does not match the expected JSON shape."""


class ParseError(StabredError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"line {line}, column {column}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownVariable(StabredError):
    """A name in polynomial text that is not a declared variable."""

    def __init__(self, name, line=None, column=None):
        self.name = name
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"unknown variable {name!r}{where}")


class TooManyVariables(StabredError):
    """The stratification refuses rings above its variable cap."""


class NoCenter(StabredError):
    """A blow-up was requested but no ring variable moves under the subtorus."""


class NoPositiveDimensionalStabilizer(StabredError):
    """The locus with positive-dimensional stabilizer was requested but is empty."""


class DegreeCapReached(StabredError):
    """Monomial enumeration hit its degree cap; generators may be incomplete."""


class DaggerViolation(StabredError):
    """A moving degree-2 generator has a differential coefficient outside the moving ideal."""


class DepthExceeded(StabredError):
    """The reduction recursion fuse tripped before reaching finite stabilizers."""


class StrictDecreaseViolation(StabredError):
    """A blow-up chart failed to lower the maximal stabilizer dimension."""
