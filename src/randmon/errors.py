"""Exception and warning types shared across the package."""


class RandmonError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(RandmonError):
    """An iterative solver hit its iteration cap before converging."""


class SingularInnovation(RandmonError):
    """The innovation covariance is numerically singular."""


class InvalidParameter(RandmonError, ValueError):
    """A physical or statistical parameter is outside its valid range."""


class DimensionMismatch(RandmonError, ValueError):
    """Matrix or vector dimensions are inconsistent."""


class DomainError(RandmonError, ValueError):
    """Argument outside the mathematical domain of a function."""


class EmptyAfterZeroRemoval(RandmonError, ValueError):
    """Every value in a window was exactly zero."""


class DegenerateWindow(RandmonError, ValueError):
    """Too few usable samples remain in a window to run a test."""


class InvalidBias(RandmonError, ValueError):
    """CUSUM bias too small for the statistic to drift down under clean data."""


class InsufficientEnsemble(RandmonError, ValueError):
    """Too few simulation runs for an ensemble statistic."""


class ConfigError(RandmonError):
    """Base class for scenario configuration problems."""


class ParseError(ConfigError):
    """Configuration file could not be parsed."""


class ValidationError(ConfigError):
    """Configuration parsed but violated one or more invariants.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):  # a sweep worker's error is pickled back whole, not as its message
        return type(self), (self.problems,)


class IllConditionedWarning(UserWarning):
    """A linear solve was performed on a badly conditioned matrix."""


class SmallSampleWarning(UserWarning):
    """A monitor window is below the size where its normal approximation is reliable."""
