"""Failure taxonomy shared by every module in the package.

All numerical failures raise a subclass of :class:`ToolkitError`, so callers
(and the command-line interface) can distinguish "the computation itself is
ill-posed or did not converge" from ordinary usage errors such as malformed
input files.
"""
from __future__ import annotations

__all__ = [
    "ToolkitError",
    "NotHermitian",
    "ConvergenceFailure",
    "DefectiveMatrix",
    "NotPositiveDefinite",
    "SpectraOverlap",
    "ShapeMismatch",
    "EmptyPartition",
    "SingularFastBlock",
    "Diverged",
    "OracleAmbiguous",
    "CutoffTooSmall",
    "SeriesDiverging",
    "NonUnitaryMonodromy",
    "NonUnitaryStep",
    "ZeroVector",
    "IndexOutOfRange",
    "WindowTooSmall",
    "InsufficientPeaks",
    "WidePrincipalAngle",
]


class ToolkitError(Exception):
    """Base class for all numerical failures raised by this package."""


class NotHermitian(ToolkitError):
    """A matrix required to be hermitian deviates beyond tolerance."""

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class ConvergenceFailure(ToolkitError):
    """An iterative routine (LAPACK or fixed point) failed to converge."""


class DefectiveMatrix(ToolkitError):
    """A general eigenproblem has a numerically defective eigenbasis."""


class NotPositiveDefinite(ToolkitError):
    """A matrix required to be positive definite has a non-positive eigenvalue."""


class SpectraOverlap(ToolkitError):
    """Slow and fast spectra come closer than the resolvable gap."""

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class ShapeMismatch(ToolkitError):
    """Array dimensions are inconsistent with the requested operation."""


class EmptyPartition(ToolkitError):
    """A partition leaves the slow or the fast sector empty."""


class SingularFastBlock(ToolkitError):
    """The fast-sector block is singular, so it cannot be eliminated."""

    def __init__(self, message: str, condition: float | None = None,
                 harmonic: int | None = None):
        super().__init__(message)
        self.condition = condition
        self.harmonic = harmonic


class Diverged(ToolkitError):
    """A fixed-point iteration is running away instead of contracting."""


class OracleAmbiguous(ToolkitError):
    """Eigenvectors cannot be assigned to sectors by subspace weight."""


class CutoffTooSmall(ToolkitError):
    """The harmonic cutoff cannot hold every component of the drive."""


class SeriesDiverging(ToolkitError):
    """Successive terms of a perturbative series are growing in norm."""


class NonUnitaryMonodromy(ToolkitError):
    """The integrated one-period propagator lost unitarity."""


class NonUnitaryStep(ToolkitError):
    """A single propagation step lost unitarity."""


class ZeroVector(ToolkitError):
    """A vector that must be normalizable has zero norm."""


class IndexOutOfRange(ToolkitError):
    """A component index lies outside the state dimension."""


class WindowTooSmall(ToolkitError):
    """A smoothing window is shorter than the sampling step."""


class InsufficientPeaks(ToolkitError):
    """Too few interior maxima to estimate a secular time shift."""


class WidePrincipalAngle(ToolkitError):
    """A rotation generator has a principal angle of pi/2 or more."""
