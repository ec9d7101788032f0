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
    """Training stopped because a loss became non-finite."""

    def __init__(self, epoch: int, batch_index: int, message: str):
        self.epoch = epoch
        self.batch_index = batch_index
        super().__init__(message)
