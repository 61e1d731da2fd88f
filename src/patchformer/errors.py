"""Exception types shared across the package.

Every error raised on purpose derives from PatchformerError so callers can
catch library failures without also swallowing programming mistakes.  The CLI
maps these onto exit codes: ConfigError -> 1, DataError/ShapeError -> 2,
TrainingError/NumericsError/DeterminismError -> 3.

Inputs that are usable but suspect emit a named warning class instead.
"""


class PatchformerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PatchformerError, ValueError):
    """An array has the wrong rank, an incompatible dimension, or is too short."""


class CapacityError(ShapeError):
    """A sequence needs more patch positions than the embedding table provides."""


class ConfigError(PatchformerError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(PatchformerError, ValueError):
    """A dataset file or table violates the expected schema or ordering."""


class NumericsError(PatchformerError, ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""


class TrainingError(PatchformerError, RuntimeError):
    """The optimisation loop hit an unrecoverable state (divergence, missing grads)."""


class DeterminismError(PatchformerError, RuntimeError):
    """Two evaluations that must agree bitwise did not."""


class ConstantChannelWarning(UserWarning):
    """A channel is flat in the data a scaler was fit on, so it is centred but not scaled."""

    def __init__(self, index: int, name: str | None = None):
        self.index = index
        self.name = name
        label = f"channel {index}" if name is None else f"channel {index} ({name!r})"
        super().__init__(
            f"{label} is constant in the scaler's fit data; it is centred but not scaled"
        )
