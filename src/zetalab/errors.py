"""Exception types shared across the package.

Every guard in the library raises one of these rather than a bare
ValueError, so callers (and the CLI) can tell a misuse (DomainError,
PoleError), a size or range past support (CapabilityError), an input
the operation cannot answer (PreconditionError: a contour through a
zeta zero) and a divergent request apart from a numerical breakdown
(ConvergenceError).
"""

from __future__ import annotations


class ZetalabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetalabError, ValueError):
    """Argument lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at (or too near) a pole, which sits
    at the complex `location`."""

    def __init__(self, message: str, location: complex = 0j):
        super().__init__(message)
        self.location = location


class CapabilityError(ZetalabError, ValueError):
    """Request exceeds the sizes/ranges this implementation supports."""


class PreconditionError(ZetalabError, ValueError):
    """A documented precondition of the operation does not hold."""


class DivergenceError(ZetalabError, ValueError):
    """The requested quantity is a divergent integral or series."""


class ConvergenceError(ZetalabError, RuntimeError):
    """An iterative scheme ran out of budget before reaching tolerance;
    `best` is the best estimate then (often a QuadResult) or None, for
    diagnostic use only."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
