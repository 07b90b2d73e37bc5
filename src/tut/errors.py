"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand extents are incompatible with the operation."""


class DomainError(ValueError):
    """Input values fall outside the operation's domain (labels, probabilities)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class ConfigError(ValueError):
    """Inconsistent or unsupported model/training configuration. ``keys``
    names the config keys whose values a check refused, if any."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


class DatasetError(RuntimeError):
    """Dataset files missing, malformed, or mutually inconsistent."""


class CheckpointError(RuntimeError):
    """Checkpoint file corrupt or incompatible with the model config."""


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite."""


class GraphReleasedError(RuntimeError):
    """Backward reached a node whose graph an earlier backward released."""
