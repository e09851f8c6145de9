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


def check_features(x, rows=None, path=None) -> np.ndarray:
    """``x`` as float64; ShapeError unless 2-D with ``rows`` rows (any when
    None), then InputError naming its first NaN or infinite entry, sought
    before a float32 ``x`` is widened."""
    x = np.asarray(x)
    if x.ndim != 2 or rows not in (None, x.shape[0]):
        raise ShapeError(f"features must be {'n' if rows is None else rows} "
                         f"x d, got {x.shape}")
    x = x if x.dtype.kind == "f" else x.astype(np.float64)
    bad = ~np.isfinite(x)
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)
        raise InputError(
            f"features holds a non-finite value at row {row}, column {col} (0-based)",
            path=path, index=(int(row), int(col)),
        )
    return x.astype(np.float64, copy=False)


def check_labels(y, num_classes=None, what="label") -> np.ndarray:
    """``y`` as int64 class ids in [0, ``num_classes``); InputError naming the
    index of the first entry that is not. A whole float such as 1.0 counts.
    An integer array pays only the range check."""
    y = np.asarray(y)
    ids = y if y.dtype.kind in "iu" else y.astype(np.float64)
    top = np.inf if num_classes is None else num_classes
    if ids.size and (ids.min() < 0 or ids.max() >= top
                     or (ids is not y and (ids != np.floor(ids)).any())):
        i = int(np.argmax((ids < 0) | (ids >= top) | (ids != np.floor(ids))))
        raise InputError(f"{what} at index {i} must be a whole number in "
                         f"[0, {top}), got {ids.flat[i].item()!r}", index=i)
    return ids.astype(np.int64, copy=False)


def is_integer(value) -> bool:
    """True for an int or a numpy integer, and not for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def count_rules(name, value, low):
    """The ``check_settings`` rules that ``value`` is an integer, then that
    it is at least ``low``."""
    whole = is_integer(value)
    return ((name, value, "an integer", whole),
            (name, value, f">= {low}", whole and value >= low))


def check_settings(what, rules) -> None:
    """Raise InputError naming the first (name, value, rule, ok) not ok."""
    for name, value, rule, ok in rules:
        if not ok:
            raise InputError(f"{what} {name} must be {rule}, got {value!r}")


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
