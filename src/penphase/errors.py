"""Exception hierarchy shared across the package."""

__all__ = [
    "DomainError",
    "NumericalError",
    "DegeneracyError",
    "MultiCrossingError",
    "NoCyclicStatesError",
]


class DomainError(ValueError):
    """Invalid physical or numerical input (negative frequency, bad grid, ...)."""


class NumericalError(RuntimeError):
    """A numerical routine failed or produced an unusable result."""


class DegeneracyError(NumericalError):
    """A computation hit a (near-)degenerate spectrum where it is ill-defined."""


class MultiCrossingError(NumericalError):
    """A bisection segment crosses more than one region boundary."""


class NoCyclicStatesError(RuntimeError):
    """No cyclic (bounded) states exist at the requested parameter point."""
