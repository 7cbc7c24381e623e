"""Exception types shared across the package.

Every error carries enough context in its message to locate the offending
input (shapes, indices, field names), because most of them surface across
module boundaries. Each error the command line reports carries its exit
code; the rest are faults of the program and surface as tracebacks.
"""


class BlindtrackError(Exception):
    """Base class for all package-specific errors."""

    exit_code: int | None = None  # the CLI's exit status, None for a program fault


class DataError(BlindtrackError):
    """Not enough usable data for the computation asked for."""

    exit_code = 6


class ShapeMismatch(BlindtrackError):
    """Operands have incompatible shapes for the requested operation."""


class NotScalar(BlindtrackError):
    """backward() was called on a tensor that is not 1x1."""


class MissingGradient(BlindtrackError):
    """An optimizer step was requested for a parameter with no gradient."""


class UnknownCellKind(BlindtrackError):
    """A sequence-model kind outside {rnn, gru, lstm, transformer}."""

    exit_code = 2


class InvalidPose(BlindtrackError):
    """Rotation matrix is not orthonormal within tolerance."""


class DepthNonPositive(DataError):
    """A point sits behind the camera plane (depth <= epsilon); carries the
    row of the projected stack it sits in."""

    def __init__(self, message: str, index: int = -1):
        super().__init__(message)
        self.index = index


class LengthMismatch(BlindtrackError):
    """Two per-timestep sequences differ in length."""


class InsufficientCorrespondences(DataError):
    """Fewer point correspondences than the estimator needs."""


class DegenerateConfiguration(DataError):
    """Correspondences are rank-deficient (e.g. coplanar world points)."""


class EmptyInput(DataError):
    """An aggregate was requested over zero elements."""


class EmptyTrajectory(DataError):
    """A trajectory with zero timesteps where at least one is required."""


class TooShort(DataError):
    """A trajectory too short to estimate motion from."""


class SceneGenerationFailed(DataError):
    """Retry budget exhausted while sampling a valid scene."""


class NoInSightAgents(DataError):
    """A scene holds no camera-visible agents to estimate from."""


class NonFiniteLoss(BlindtrackError):
    """Training produced NaN or Inf, or a model predicted it; carries the
    epoch and batch index of a training loss."""

    exit_code = 5

    def __init__(self, message: str, epoch: int = -1, batch: int = -1):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class ConfigError(BlindtrackError):
    """A run configuration field is missing, malformed, or out of range."""

    exit_code = 2

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class SchemaError(BlindtrackError):
    """An imported record violates the documented scene schema."""

    exit_code = 7

    def __init__(self, message: str, line: int = -1, field: str = ""):
        super().__init__(message)
        self.line = line
        self.field = field


class HashMismatch(BlindtrackError):
    """A dataset or checkpoint does not match the config hash it claims."""

    exit_code = 4
