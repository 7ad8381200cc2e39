"""Exception hierarchy shared across the package."""


class CalderonError(Exception):
    """Base class for all package errors."""


class ParamError(CalderonError, ValueError):
    """A scalar parameter is outside its admissible range."""


class OverlapError(CalderonError):
    """The closures of the interior and measurement regions touch on the grid."""


class ResolutionError(CalderonError):
    """The grid is too coarse to represent the requested geometry."""


class EllipticityError(CalderonError):
    """A coefficient matrix violates the uniform ellipticity bounds."""


class SolveError(CalderonError):
    """A linear solve failed or did not reach the requested tolerance."""


class EigError(CalderonError):
    """A dense eigendecomposition failed or was refused (problem too large)."""


class MeshMismatch(CalderonError):
    """A field or datum was paired with a mesh built for different parameters."""


class CalibrationError(CalderonError):
    """The fitted trace-normalization constant drifted too far from the
    analytic candidate, which indicates a sign or convention bug."""


class TailError(CalderonError):
    """The vertical integral's truncation defect, the flux through the top
    cell over the operator's smallest eigenvalue, exceeds TAIL_FRACTION of
    the integral's sup norm: the extension was cut too low."""


class FitError(CalderonError):
    """Not enough well-spread samples to fit a decay slope."""


class RankError(CalderonError):
    """Numerical rank deficiency beyond the configured threshold."""


class ConfigError(CalderonError):
    """An experiment configuration violates the published schema."""


class ExperimentError(CalderonError):
    """An unknown experiment name was requested."""


class RankWarning(UserWarning):
    """Basis traces are numerically rank-deficient; results may be unstable."""
