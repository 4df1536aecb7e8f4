"""Error taxonomy shared across the package.

The command line maps AnalysisError to exit 1 and every other LpmError to
exit 2 (an input error).
"""


class LpmError(Exception):
    """Base class for all analysis errors."""


class AnalysisError(LpmError):
    """Valid input on which the analysis itself failed."""


class ParameterError(LpmError, ValueError):
    """A parameter lies outside its valid range (e.g. fewer than 2 bins)."""


class EmptyInputError(LpmError):
    """An operation received no usable data."""


class DegenerateDesignError(LpmError):
    """An estimation problem is under-determined (e.g. <2 distinct b-values)."""


class BinningMismatchError(LpmError):
    """Histogram and model were built on different bin grids."""


class OverParameterisedError(AnalysisError):
    """Model has at least as many free parameters as informative cells."""


class SelectionFailedError(AnalysisError):
    """Every candidate model in a selection sweep was degenerate or unconverged."""


class DegenerateVarianceError(LpmError):
    """Both samples in a two-sample test have zero variance."""


class UndefinedSummaryError(LpmError):
    """A summary statistic is undefined (e.g. zero-count timepoint)."""


class InputFormatError(LpmError):
    """A file failed structural validation (missing columns, bad header...)."""
