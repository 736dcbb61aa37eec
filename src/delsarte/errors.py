"""Exception hierarchy shared by the package."""


class DelsarteError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(DelsarteError):
    """The exponent matrix is singular; the character-group method does not apply."""


class DegenerateSupportError(DelsarteError):
    """The support does not span a two-dimensional polygon."""


class NotOneInteriorError(DelsarteError):
    """Classification was asked for a polygon without exactly one interior point."""


class ClassificationError(DelsarteError):
    """A one-interior-point polygon matched none of the 16 classes (internal bug)."""


class NonEllipticError(DelsarteError):
    """The Weierstrass data has vanishing discriminant."""


class InvalidConfigError(DelsarteError):
    """Empty or malformed fiber configuration."""


class RankInconsistencyError(DelsarteError):
    """h2 - lambda - rho_triv came out negative; the inputs disagree."""


class GroupTooLargeError(DelsarteError):
    """The character group has more elements than the enumeration cap."""


class GroupOrderError(DelsarteError):
    """The enumerated character group disagrees with |det A| / d (internal bug)."""


class DivisibilityError(DelsarteError):
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
