"""Exception hierarchy for the dynsfm pipeline.

Every error raised by library code derives from DynSfmError so callers
(and the CLI) can map failures to exit codes without matching strings.
"""


class DynSfmError(Exception):
    """Base class for all dynsfm errors."""


class DegenerateMatrix(DynSfmError):
    pass


class TooFewPoints(DynSfmError):
    pass


class DegenerateScene(DynSfmError):
    pass


class BadSampling(DynSfmError):
    pass


class SingularInertia(DynSfmError):
    pass


class BadFilterSpec(DynSfmError, ValueError):
    """A filter spec breaks derivatives.check_filter_spec."""


class SeriesTooShort(DynSfmError):
    pass


class TooFewFramesOrPoints(DynSfmError):
    pass


class LengthMismatch(DynSfmError):
    pass


class RankDeficient(DynSfmError):
    pass


class SingularTransform(DynSfmError):
    pass


class IndefiniteQ(DynSfmError):
    pass


class DegenerateConfiguration(DynSfmError):
    pass


class DimensionMismatch(DynSfmError):
    pass


class NonFiniteInput(DynSfmError):
    """An input array holds a NaN, an infinity or a value that overflows."""


class NumericalFailure(DynSfmError):
    """A solver stage broke down numerically: LAPACK failed, or the stage
    produced non-finite values."""


class OverBudget(DynSfmError):
    """An input above the size budget (simulate.MAX_FRAMES, MAX_W_BYTES),
    or a solver stage that ran out of memory."""


class ConfigError(DynSfmError):
    """Invalid run configuration; message names the offending field."""


class IllConditionedWarning(UserWarning):
    """A least-squares stage hit a normal-equation condition number > 1e12."""
