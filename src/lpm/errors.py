"""The two failures the package raises, one per non-zero exit code, and the
one reader of input files.

The command line maps AnalysisError to exit 1 and InputError to exit 2.
"""

import csv


class LpmError(Exception):
    """Base class of every error the package raises on purpose."""


class AnalysisError(LpmError):
    """Valid input on which the analysis itself failed (exit 1)."""


class InputError(LpmError, ValueError):
    """An input, file or parameter the analysis cannot accept (exit 2)."""


def read_input(path, what, parse):
    """parse(fh) of UTF-8 text file path, opened with newline="" and without
    a leading byte-order mark; a file that parse cannot read is an InputError
    naming path and `what` it should hold."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except (KeyError, IndexError, ValueError, TypeError, csv.Error, RecursionError) as exc:
        problem = (f"{what} lacks key {exc}" if isinstance(exc, KeyError)
                   else f"malformed {what}: {exc}")
        raise InputError(f"{path}: {problem}") from None
