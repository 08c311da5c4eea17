"""Exception types shared across the package."""


class PerifrontError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PerifrontError):
    """A user-set value (config file, flag or model dict) is unusable."""


class GridError(PerifrontError):
    """Invalid grid construction (non-positive length, too few points)."""


class MetzlerError(PerifrontError):
    """Central differencing would produce negative off-diagonal entries.

    Carries the minimal point count that restores the sign condition.
    """

    def __init__(self, msg, n_required=None):
        super().__init__(msg)
        self.n_required = n_required


class SingularSystemError(PerifrontError):
    """Banded solve hit a (near-)singular system."""


class ConvergenceError(PerifrontError):
    """An iteration exhausted its budget without meeting tolerance."""


class ReducibleCouplingError(PerifrontError):
    """Coupled eigenproblem returned a non-positive principal vector."""


class SpectralGapError(PerifrontError):
    """First dispersion curve does not dominate the others at the given tilt."""


class FrontError(PerifrontError):
    """Front diagnostics failed (no crossing, insufficient coverage, ...).

    A run stopped at the guard band carries the window width in cells
    that would hold it.
    """

    def __init__(self, msg, window_cells=None):
        super().__init__(msg)
        self.window_cells = window_cells


class CertificationError(PerifrontError):
    """Sub/supersolution construction could not satisfy its parameter recipe."""
