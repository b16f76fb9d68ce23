"""Exception taxonomy shared across the solver."""


class RdsplitError(Exception):
    """Base class for all package errors.

    A ``stage`` attribute may be attached by the splitting driver to record
    which sub-step of a time step raised (e.g. ``"reaction stage 1"``).
    """

    stage: str | None = None

    def __str__(self) -> str:
        msg = super().__str__()
        if self.stage:
            return f"{msg} [{self.stage}]"
        return msg


class InvalidInput(RdsplitError):
    """An argument violates a documented precondition."""


class PositivityViolation(RdsplitError):
    """A field or concentration that must stay positive did not."""


class NonConvergence(RdsplitError):
    """An iterative solve hit its iteration cap.

    Carries the last residual magnitude and the iteration count so callers
    can report how close the solve got.
    """

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InvalidConfig(RdsplitError):
    """A configuration file is malformed; carries the offending key path."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
