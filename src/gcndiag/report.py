"""Results report assembly and JSON serialization.

A report is a plain JSON-compatible dict: fingerprint, config echo, homophily
section, per-cell grid results, delta tables, the random-feature retention
table, optional quadrant section, and the conventions the numbers depend on.
Timestamps live under the "volatile" key so two runs of the same experiment
produce byte-identical files once that key is dropped.
"""

import datetime
import errno
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import InputError
from .gcn import PATIENCE
from .metrics import retention
from .protocol import (VAL_FRACTION, TRAIN_FRACTION, ExperimentResult,
                       masking_percent)

SCHEMA_VERSION = 1


# conventions a reader needs to interpret the numbers
DECISIONS = {
    "train_fraction": TRAIN_FRACTION,
    "validation_fraction": VAL_FRACTION,
    "early_stopping_patience": PATIENCE,
    "argmax_tie_rule": "lowest class id wins",
    "grid_tie_rule": "smallest regularization value wins",
    "quadrant_boundary_rule": "values equal to a threshold count as low/weak",
    "masking_rule": "per-class nested prefixes of one seeded permutation",
    "undefined_value_rule": "NaN inputs serialize as null and flag the class",
}


def jsonable(obj):
    """Recursively coerce to JSON-native types; NaN and inf become null."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if not math.isfinite(f) else f
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def build_report(fingerprint: str, config: dict, homophily: dict,
                 result: ExperimentResult, quadrants=None,
                 cell_seconds=None, quadrants_skipped=None) -> dict:
    """Assemble the full report dict; every number traces to an input section.

    The delta and retention tables derive from each cell's macro-F1, NaN for
    a missing or failed cell, so an entry that lacks an input is null. Each
    cell's wall time, ``cell_seconds`` by cell key, goes under "volatile".
    ``quadrants_skipped`` says why a null quadrant section was not built.
    """
    macro = {(c.model, masking_percent(c.masking_rate), c.feature_mode):
             math.nan if c.scores is None else c.scores.macro_f1
             for c in result.cells.values()}

    def f1(model, pct, mode):
        return macro.get((model, pct, mode), math.nan)

    deltas, retentions = {}, {}
    for model, pct, mode in macro:
        retentions.setdefault(model, {})[pct] = retention(
            f1(model, pct, "original"), f1(model, pct, "random"))
        if model == "gcn":
            deltas.setdefault(mode, {})[pct] = (f1("gcn", pct, mode)
                                                - f1("logreg", pct, mode))

    report = {
        "schema_version": SCHEMA_VERSION,
        "dataset_fingerprint": fingerprint,
        "config": config,
        "homophily": homophily,
        "grid": asdict(result),
        "delta_f1": deltas,
        "retention": retentions,
        "quadrants": quadrants,
        "quadrants_skipped": quadrants_skipped,
        "decisions": DECISIONS,
        "volatile": {
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "cell_seconds": cell_seconds or {},
        },
    }
    return jsonable(report)


def save_report(payload: dict, path=None) -> None:
    """Write ``payload`` as sorted, indented JSON to ``path``, or to stdout.

    Values pass through ``jsonable``; a path that cannot be written is an
    InputError naming it.
    """
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report: {exc.strerror or exc}", path=path)


def check_report_dir(path) -> None:
    """Raise the InputError ``save_report`` would raise for a report ``path``
    in a missing directory, or for one that is itself a directory, so a long
    run fails before it starts."""
    if path is None:
        return
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(
            f"cannot write report: {os.strerror(errno.ENOENT)}", path=path)
    if os.path.isdir(path):
        raise InputError(
            f"cannot write report: {os.strerror(errno.EISDIR)}", path=path)


def load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read report: {exc.strerror or exc}", path=path)
    except UnicodeDecodeError:
        raise InputError("report is not valid UTF-8", path=path) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"report is not valid JSON: {exc}", path=path)


def stable_form(report: dict) -> dict:
    """The report minus its volatile section, for determinism comparisons."""
    return {k: v for k, v in report.items() if k != "volatile"}
