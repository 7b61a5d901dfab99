"""Exception types shared across the package."""


class BlockmgError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BlockmgError, ValueError):
    """Operands have incompatible or invalid shapes."""


class ArgumentError(BlockmgError, ValueError):
    """An argument violates a documented precondition."""


class SingularMatrixError(BlockmgError, ArithmeticError):
    """A matrix required to be nonsingular is numerically singular.

    ``pivot_index`` is the 0-based index of the offending pivot when the
    failure was detected inside an LU factorization, else None.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NumericalError(BlockmgError, ArithmeticError):
    """A numerical kernel failed or had too little usable data."""


class TrackingError(BlockmgError, RuntimeError):
    """Eigenvalue-branch tracking became ambiguous (overlap below threshold).

    Raised instead of guessing which branch to follow.
    """


class SymbolZeroError(BlockmgError, ValueError):
    """The zero structure of a symbol violates the single-zero assumption."""


class ConfigurationError(BlockmgError, ValueError):
    """A solver or experiment configuration value is invalid."""


class ConstructionError(BlockmgError, RuntimeError):
    """A generated object failed its construction-time self-checks."""
