"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or inconsistent setup."""


class ParseError(ValueError):
    """A dataset file line could not be parsed."""


class CheckpointError(RuntimeError):
    """Checkpoint directory is missing, corrupt, or incompatible."""


class TrainingAbort(RuntimeError):
    """Training stopped because a loss became non-finite; the message names
    the epoch and batch."""
