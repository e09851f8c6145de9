"""Exception types shared across the toolkit."""

import numpy as np


class GcnDiagError(Exception):
    """Base class for all toolkit errors."""


class InputError(GcnDiagError):
    """Malformed or out-of-range input: bad node ids, labels, file contents.

    Optional context attributes locate the offending datum: ``path`` and
    ``line`` for file parsing, ``index`` for in-memory sequences.
    """

    def __init__(self, message, *, path=None, line=None, index=None):
        super().__init__(message)
        self.path = path
        self.line = line
        self.index = index


class ShapeError(GcnDiagError):
    """Dimension mismatch between arrays that must agree."""


def check_finite(x, path=None) -> None:
    """Raise InputError naming the first NaN or infinite entry of 2-D ``x``."""
    bad = ~np.isfinite(x)
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)
        raise InputError(
            f"features holds a non-finite value at row {row}, column {col} (0-based)",
            path=path, index=(int(row), int(col)),
        )


def require_keys(d, keys, where=""):
    """Return ``d`` if it is a dict holding every key in ``keys``; otherwise
    raise InputError naming the first missing key by its path ``where``."""
    if not isinstance(d, dict):
        raise InputError(
            f"{where or 'report'} must be a JSON object, got {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise InputError(f"missing key {where + '.' if where else ''}{key}")
    return d
