"""Exception types shared across the library.

Numerical failures derive from :class:`NumericalError`; malformed input
documents and inconsistent configuration derive from :class:`SchemaError`.
The command line maps the former to exit code 1 and the latter to 2.
"""

from __future__ import annotations

__all__ = [
    "FracHillError",
    "NumericalError",
    "SchemaError",
    "PoleError",
    "AccuracyError",
    "NotDiagonalizableError",
    "DomainError",
    "UnboundedHistoryError",
    "SingularForcingError",
    "NonFiniteStateError",
    "QuadratureError",
    "IterationError",
]


class FracHillError(Exception):
    """Base class for every error raised by this package."""


class NumericalError(FracHillError):
    """A computation could not be completed to the requested accuracy."""


class SchemaError(FracHillError, ValueError):
    """An input document or configuration violates its schema."""


class PoleError(NumericalError, ValueError):
    """Gamma function evaluated at a non-positive integer."""


class AccuracyError(NumericalError):
    """An iterative evaluation did not converge to the requested tolerance."""


class NotDiagonalizableError(NumericalError):
    """Matrix argument is too close to non-diagonalizable for spectral use."""


class DomainError(NumericalError, ValueError):
    """Argument outside the domain an operation is defined on."""


class UnboundedHistoryError(NumericalError, ValueError):
    """History function (or its derivative) fails the boundedness checks."""


class SingularForcingError(NumericalError):
    """Forcing integrand detected unbounded near the initial time."""


class NonFiniteStateError(NumericalError):
    """Time stepping produced NaN or Inf state components."""

    def __init__(self, message: str, last_valid_time: float | None = None):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach its target tolerance."""


class IterationError(NumericalError):
    """An iterative solver exhausted its iteration budget."""
