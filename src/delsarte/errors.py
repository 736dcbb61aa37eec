"""Exception hierarchy shared by the package.

Each class carries the exit code the command line ends with when it is
raised: 2 for invalid input (the default), 3 for a violated precondition
of the method (PreconditionError) and 4 for an internal inconsistency
(InconsistencyError).
"""


class DelsarteError(Exception):
    """Base class for all errors raised by this package; invalid input."""

    exit_code = 2


class PreconditionError(DelsarteError):
    """The input is well formed, but the method does not apply to it."""

    exit_code = 3


class InconsistencyError(DelsarteError):
    """Two computations that must agree disagree (internal bug)."""

    exit_code = 4


class SingularMatrixError(PreconditionError):
    """The exponent matrix is singular; the character-group method does not apply."""


class DegenerateSupportError(PreconditionError):
    """The support does not span a two-dimensional polygon."""


class NotOneInteriorError(PreconditionError):
    """Classification was asked for a polygon without exactly one interior point."""


class ClassificationError(InconsistencyError):
    """A one-interior-point polygon matched none of the 16 classes (internal bug)."""


class NonEllipticError(PreconditionError):
    """The Weierstrass data has vanishing discriminant."""


class InvalidConfigError(DelsarteError):
    """Empty or malformed fiber configuration."""


class RankInconsistencyError(InconsistencyError):
    """h2 - lambda - rho_triv came out negative; the inputs disagree."""


class GroupTooLargeError(PreconditionError):
    """The character group has more elements than the enumeration cap."""


class GroupOrderError(InconsistencyError):
    """The enumerated character group disagrees with |det A| / d (internal bug)."""


class DivisibilityError(PreconditionError):
    """The parameter n violates a representative's divisibility requirement."""


class CatalogError(DelsarteError):
    """Catalog file problem; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PolynomialSyntaxError(DelsarteError):
    """Bad polynomial input text; carries the character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
