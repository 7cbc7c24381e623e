"""Exception types shared across the package.

Every error carries enough context in its message to locate the offending
input (shapes, indices, field names), because most of them surface across
module boundaries.
"""


class BlindtrackError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(BlindtrackError):
    """Operands have incompatible shapes for the requested operation."""


class NotScalar(BlindtrackError):
    """backward() was called on a tensor that is not 1x1."""


class MissingGradient(BlindtrackError):
    """An optimizer step was requested for a parameter with no gradient."""


class UnknownCellKind(BlindtrackError):
    """A sequence-model kind outside {rnn, gru, lstm, transformer}."""


class InvalidPose(BlindtrackError):
    """Rotation matrix is not orthonormal within tolerance."""


class DepthNonPositive(BlindtrackError):
    """A point sits behind the camera plane (depth <= epsilon)."""


class LengthMismatch(BlindtrackError):
    """Two per-timestep sequences differ in length."""


class InsufficientCorrespondences(BlindtrackError):
    """Fewer point correspondences than the estimator needs."""


class DegenerateConfiguration(BlindtrackError):
    """Correspondences are rank-deficient (e.g. coplanar world points)."""


class EmptyInput(BlindtrackError):
    """An aggregate was requested over zero elements."""


class EmptyTrajectory(BlindtrackError):
    """A trajectory with zero timesteps where at least one is required."""


class TooShort(BlindtrackError):
    """A trajectory too short to estimate motion from."""


class SceneGenerationFailed(BlindtrackError):
    """Retry budget exhausted while sampling a valid scene."""


class NoInSightAgents(BlindtrackError):
    """A scene holds no camera-visible agents to estimate from."""


class NonFiniteLoss(BlindtrackError):
    """Training produced NaN or Inf, or a model predicted it; carries the
    epoch and batch index of a training loss."""

    def __init__(self, message: str, epoch: int = -1, batch: int = -1):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class ConfigError(BlindtrackError):
    """A run configuration field is missing, malformed, or out of range."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class SchemaError(BlindtrackError):
    """An imported record violates the documented scene schema."""

    def __init__(self, message: str, line: int = -1, field: str = ""):
        super().__init__(message)
        self.line = line
        self.field = field


class HashMismatch(BlindtrackError):
    """A dataset or checkpoint does not match the config hash it claims."""
