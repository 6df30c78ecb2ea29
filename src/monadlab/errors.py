"""Exception types shared across the package."""


class MonadLabError(Exception):
    """Base class for all errors raised by monadlab."""


class ShapeMismatchError(MonadLabError):
    """Matrix or monad dimensions are inconsistent."""


class NotRepresentableError(MonadLabError):
    """No special monad exists with the requested dimensions."""


class RetryExhaustedError(MonadLabError):
    """A randomized constructor ran out of retries without a valid draw."""


class NotLocallyFreeError(MonadLabError):
    """An operation requiring a locally-free cohomology sheaf was refused."""


class AlphaDegenerateError(MonadLabError):
    """The left or right map degenerates on the line; no splitting is reported."""


class ReconstructionError(MonadLabError):
    """Splitting-type reconstruction contradicts the measured dimensions.

    This signals an engine defect, not a property of the input.
    """


class MonadDecodeError(MonadLabError):
    """Malformed monad file. Carries a human-readable position diagnostic."""

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at {position})")
