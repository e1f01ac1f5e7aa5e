"""Exception and warning types shared across the package."""


class RandmonError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(RandmonError):
    """An iterative solver hit its iteration cap before converging."""


class SingularInnovation(RandmonError):
    """The innovation covariance is numerically singular."""


class InvalidParameter(RandmonError, ValueError):
    """An argument has the wrong shape or a value outside its valid range."""


class EmptyAfterZeroRemoval(RandmonError, ValueError):
    """Every value in a window was exactly zero."""


class DegenerateWindow(RandmonError, ValueError):
    """Too few usable samples remain in a window to run a test."""


class ValidationError(RandmonError):
    """A scenario configuration could not be read or violated one or more invariants.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class IllConditionedWarning(UserWarning):
    """A linear solve was performed on a badly conditioned matrix."""


class SmallSampleWarning(UserWarning):
    """A monitor window is below the size where its normal approximation is reliable."""
