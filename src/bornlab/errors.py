"""Exception hierarchy shared by all bornlab modules."""

from __future__ import annotations


class BornLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(BornLabError, ValueError):
    """Operands live on Hilbert spaces or grids of different dimension."""


class InvalidStateError(BornLabError, ValueError):
    """A state vector is zero, empty, or otherwise unusable."""


class InvalidGrainingError(BornLabError, ValueError):
    """A coarse-graining has empty, overlapping, or non-exhaustive blocks."""


class IncompleteMeasureError(BornLabError, KeyError):
    """A measure table is queried on a projector it does not cover."""


class OutcomeIndexError(BornLabError, IndexError):
    """An outcome index lies outside the table of outcomes it refers to."""


class GeometryError(BornLabError, ValueError):
    """Ray geometry does not match what a constraint construction requires."""


class PreconditionError(BornLabError, ValueError):
    """An operation's stated precondition does not hold for the given inputs."""


class ResolutionError(BornLabError):
    """The grid cannot be refined finely enough for the requested split.

    ``required_subcells`` records how fine the grid would have to be.
    """

    def __init__(self, message: str, required_subcells: int | None = None):
        super().__init__(message)
        self.required_subcells = required_subcells


class ConvergenceFailureError(BornLabError):
    """An iterative approximation hit its cap before reaching tolerance."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class InconsistentSystemError(BornLabError):
    """A linear constraint system admits no solution.

    ``conflict`` lists labels of the constraints whose combination is
    contradictory.
    """

    def __init__(self, message: str, conflict=()):
        super().__init__(message)
        self.conflict = tuple(conflict)


class RelabelingError(BornLabError, ValueError):
    """A spectrum relabeling is not invertible on the given spectrum."""


class UnitarityError(BornLabError, ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class LinearityError(BornLabError, ValueError):
    """A payoff-linearity requirement is violated."""


class IntegrationFailureError(BornLabError, ArithmeticError):
    """A stochastic integration step produced a NaN or overflow.

    Carries the step index and time at which the failure occurred.
    """

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time


class HistoryCountError(BornLabError, ValueError):
    """A history set is too large to enumerate or analyse; coarsen the resolutions."""
