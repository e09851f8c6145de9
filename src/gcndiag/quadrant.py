"""Homophily x feature-strength quadrant rule.

Each class lands in one of four cells based on whether its homophily exceeds
0.70 and whether its feature-only F1 exceeds 0.85. The cell predicts whether
graph convolution should help that class: low homophily with strong features
is where it is expected to hurt.
"""

import math

import numpy as np

from .errors import InputError, check_settings, require_keys
from .metrics import delta_f1
from .protocol import ExperimentResult, cell_key

LOW_H_STRONG_F = "LowH-StrongF"
HIGH_H_STRONG_F = "HighH-StrongF"
LOW_H_WEAK_F = "LowH-WeakF"
HIGH_H_WEAK_F = "HighH-WeakF"
QUADRANT_NAMES = (LOW_H_STRONG_F, HIGH_H_STRONG_F, LOW_H_WEAK_F, HIGH_H_WEAK_F)

HOMOPHILY_THRESHOLD = 0.70
F1_THRESHOLD = 0.85


def quadrant_of(homophily: float, feature_f1: float, homophily_threshold: float,
                f1_threshold: float) -> str:
    """Strictly above a threshold counts as high; sitting on it counts as low."""
    high_h = homophily > homophily_threshold
    strong_f = feature_f1 > f1_threshold
    if strong_f:
        return HIGH_H_STRONG_F if high_h else LOW_H_STRONG_F
    return HIGH_H_WEAK_F if high_h else LOW_H_WEAK_F


def check_thresholds(homophily_threshold: float, f1_threshold: float) -> None:
    check_settings("quadrant", (
        ("homophily_threshold", homophily_threshold, "in [0, 1]",
         0.0 <= homophily_threshold <= 1.0),
        ("f1_threshold", f1_threshold, "in [0, 1]", 0.0 <= f1_threshold <= 1.0)))


def assign_quadrants(per_class_homophily, per_class_lr_f1, per_class_delta,
                     homophily_threshold: float = HOMOPHILY_THRESHOLD,
                     f1_threshold: float = F1_THRESHOLD) -> dict:
    """The quadrant section: each quadrant's classes and mean delta F1, the
    classes flagged for an undefined input rather than placed, the thresholds
    applied, and one row per placed class in ascending class id. Every
    quadrant key is present; an empty quadrant reports mean_delta_f1 None."""
    check_thresholds(homophily_threshold, f1_threshold)
    h = np.asarray(per_class_homophily, dtype=np.float64)
    f1 = np.asarray(per_class_lr_f1, dtype=np.float64)
    delta = np.asarray(per_class_delta, dtype=np.float64)
    if not (h.shape == f1.shape == delta.shape):
        raise InputError(
            f"per-class arrays disagree on length: {h.shape}, {f1.shape}, {delta.shape}"
        )
    per_class = []
    flagged = []
    for c in range(h.size):
        if math.isnan(h[c]) or math.isnan(f1[c]) or math.isnan(delta[c]):
            flagged.append(c)
            continue
        per_class.append({
            "class_id": c,
            "quadrant": quadrant_of(h[c], f1[c], homophily_threshold, f1_threshold),
            "homophily": float(h[c]), "feature_f1": float(f1[c]),
            "delta_f1": float(delta[c]),
        })
    out = {}
    for name in QUADRANT_NAMES:
        members = [row for row in per_class if row["quadrant"] == name]
        out[name] = {
            "classes": [row["class_id"] for row in members],
            "mean_delta_f1": (float(np.mean([row["delta_f1"] for row in members]))
                              if members else None),
        }
    out["flagged_classes"] = flagged
    out["thresholds"] = {"homophily": homophily_threshold,
                         "feature_f1": f1_threshold}
    out["per_class"] = per_class
    return out


def _section_arrays(report):
    """(homophily, feature F1, delta F1) per class from the quadrant section
    of a ``run`` report, NaN at each flagged class, for ``assign_quadrants``
    to threshold again. The rows and flagged ids must name the classes
    0..k-1 once each. A missing or malformed value is an InputError naming
    its path in the report, as in ``quadrants.per_class[2].feature_f1``."""
    def read(value, where, kind=(int, float)):
        try:  # true and false are not numbers, and placed rows hold no NaN
            if (isinstance(value, kind) and not isinstance(value, bool)
                    and (kind is list or math.isfinite(value))):
                return value
        except OverflowError:  # an integer too large for a float
            pass
        raise InputError(f"malformed value at {where}: {value!r:.60}")

    section = require_keys(report, ("quadrants",))["quadrants"]
    if section is None:
        raise InputError("quadrants is null, quadrants_skipped: "
                         f"{report.get('quadrants_skipped')}")
    require_keys(section, ("per_class", "flagged_classes"), "quadrants")
    rows = read(section["per_class"], "quadrants.per_class", list)
    flagged = read(section["flagged_classes"], "quadrants.flagged_classes", list)
    keys = ("class_id", "homophily", "feature_f1", "delta_f1")
    placed = []
    for i, row in enumerate(rows):
        where = f"quadrants.per_class[{i}]"
        require_keys(row, keys, where)
        placed.append([read(row[key], f"{where}.{key}",
                            int if key == "class_id" else (int, float))
                       for key in keys])
    ids = [row[0] for row in placed] + [
        read(c, f"quadrants.flagged_classes[{i}]", int)
        for i, c in enumerate(flagged)]
    if sorted(ids) != list(range(len(ids))):
        raise InputError(f"the quadrants section names the classes "
                         f"{sorted(ids)}, not 0..{len(ids) - 1} once each")
    out = np.full((3, len(ids)), math.nan)
    for c, *values in placed:
        out[:, c] = values
    return out


def averaged_class_metrics(result: ExperimentResult):
    """Per-class LR F1 and per-class (GCN - LR) F1, averaged over the masking
    rates the grid's cells hold, in ascending order.

    Uses the original-feature cells only. Any missing or failed cell makes the
    average meaningless, so that is an error rather than a silent skip.
    """
    masking_rates = sorted({cell.masking_rate for cell in result.cells.values()})
    if not masking_rates:
        raise InputError("no masking rates to average over")
    lr_rows, delta_rows = [], []
    for rate in masking_rates:
        keys = [cell_key(model, rate, "original") for model in ("logreg", "gcn")]
        missing = [key for key in keys if key not in result.cells]
        if missing:
            raise InputError(f"no cell {missing[0]!r} in this run")
        cells = [result.cells[key] for key in keys]
        for key, cell in zip(keys, cells):
            if cell.scores is None:
                raise InputError(f"cell {key} failed ({cell.error}); cannot average")
        lr, gcn = (cell.scores for cell in cells)
        lr_rows.append(lr.per_class_f1)
        delta_rows.append(delta_f1(gcn, lr)[1])
    return (np.mean(lr_rows, axis=0), np.mean(delta_rows, axis=0))
