"""Exception types shared across the package."""


class LaplgmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LaplgmError, ValueError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(LaplgmError, ValueError):
    """A pivot fell below tolerance: the matrix is not numerically SPD."""


class ProblemTooLarge(LaplgmError):
    """The band factor of a permuted precision would exceed the memory cap."""


class SingularConstraint(LaplgmError, ValueError):
    """The constraint system M Q^-1 M' is numerically singular."""


class InvalidRectangle(LaplgmError, ValueError):
    """Degenerate rectangle bounds or cell counts."""


class ParseError(LaplgmError, ValueError):
    """A file or configuration could not be parsed."""


class DegenerateTriangle(LaplgmError, ValueError):
    """Triangle area below tolerance."""


class NonConformingMesh(LaplgmError, ValueError):
    """An edge is shared by more than two triangles."""


class PointOutsideMesh(LaplgmError, ValueError):
    """A projection point lies inside no triangle."""


class InvalidCorrelation(LaplgmError, ValueError):
    """Autoregression coefficient outside (-1, 1) ((-1, 1] for a simulation)."""


class InvalidParameter(LaplgmError, ValueError):
    """A model, simulation or engine setting outside its domain."""


class UnknownTag(LaplgmError, KeyError):
    """Requested row tag does not exist."""


class UnsupportedObservation(LaplgmError, ValueError):
    """Observation outside the likelihood family's support."""


class ModeSearchFailed(LaplgmError, RuntimeError):
    """Hyperparameter mode search exhausted its evaluation budget."""


class NonConvergence(LaplgmError, RuntimeError):
    """Newton iteration did not converge."""

    def __init__(self, iterations, message=None):
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations")


class InvalidProbability(LaplgmError, ValueError):
    """Probability outside the open interval (0, 1)."""


class DataMismatch(LaplgmError, ValueError):
    """Fits being compared do not share identical data rows."""
