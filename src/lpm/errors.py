"""The two failures the package raises, one per non-zero exit code.

The command line maps AnalysisError to exit 1 and InputError to exit 2.
"""


class LpmError(Exception):
    """Base class of every error the package raises on purpose."""


class AnalysisError(LpmError):
    """Valid input on which the analysis itself failed (exit 1)."""


class InputError(LpmError, ValueError):
    """An input, file or parameter the analysis cannot accept (exit 2)."""
