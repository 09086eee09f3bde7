"""Exception hierarchy for the :mod:`klap` package.

All library errors derive from :class:`KlapError` so callers can catch a
single base class.  Input-shape problems raise
:class:`DimensionMismatchError`, numerical-rank and conditioning problems
raise the more specific subclasses below.
"""

__all__ = [
    "KlapError",
    "DimensionMismatchError",
    "NotHurwitzError",
    "IllConditionedError",
    "SingularOperatorError",
    "NotPsdError",
    "DefectiveMatrixError",
    "NoSolutionError",
    "SingularFeedthroughError",
    "ParseError",
]


class KlapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(KlapError, ValueError):
    """Matrix dimensions are inconsistent with the state-space layout."""


class NotHurwitzError(KlapError, ValueError):
    """A matrix required to be Hurwitz has an eigenvalue with
    non-negative real part (within tolerance).  ``abscissa`` is its largest
    eigenvalue real part, when the raiser computed it."""

    def __init__(self, message: str, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa


class IllConditionedError(KlapError, ArithmeticError):
    """An eigenvector basis is too ill-conditioned for the requested
    diagonalization-based solve."""


class SingularOperatorError(KlapError, ArithmeticError):
    """The Lyapunov operator is singular: some eigenvalue pair satisfies
    ``lambda_i + lambda_j ~= 0``."""


class NotPsdError(KlapError, ValueError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class DefectiveMatrixError(KlapError, ArithmeticError):
    """The matrix is (numerically) defective and admits no reliable
    eigenvector basis."""


class NoSolutionError(KlapError, ArithmeticError):
    """The algebraic Riccati equation has no solution of the requested
    kind (the underlying model is not passivatable by feedthrough alone,
    or the iteration failed to converge)."""


class SingularFeedthroughError(KlapError, ValueError):
    """``D + D^T`` is singular at working precision but the requested
    operation needs its inverse (or inverse square root)."""


class ParseError(KlapError, ValueError):
    """A model file could not be parsed."""
