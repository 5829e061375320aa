"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "FieldError",
    "GridMismatchError",
    "ConfigError",
    "ConvergenceError",
    "InstabilityError",
    "DenominatorError",
    "TimeHorizonWarning",
    "StepSizeWarning",
]


class FieldError(ValueError):
    """A field fails a structural precondition (shape, reality, support)."""


class GridMismatchError(ValueError):
    """Two objects were combined across incompatible grids."""


class ConfigError(ValueError):
    """A configuration value violates its documented range."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to contract within its sweep budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InstabilityError(RuntimeError):
    """A time stepper produced non-finite values."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class DenominatorError(ValueError):
    """A weighted trilinear form hit a vanishing denominator."""

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


class TimeHorizonWarning(UserWarning):
    """The requested horizon is outside the standing T < 1 convention."""


class StepSizeWarning(UserWarning):
    """The requested step size looks too coarse for the active modes."""
