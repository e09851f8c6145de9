"""Homophily x feature-strength quadrant rule.

Each class lands in one of four cells based on whether its homophily exceeds
0.70 and whether its feature-only F1 exceeds 0.85. The cell predicts whether
graph convolution should help that class: low homophily with strong features
is where it is expected to hurt.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_settings
from .metrics import delta_f1
from .protocol import MASKING_RATES, ExperimentResult, cell_key

LOW_H_STRONG_F = "LowH-StrongF"
HIGH_H_STRONG_F = "HighH-StrongF"
LOW_H_WEAK_F = "LowH-WeakF"
HIGH_H_WEAK_F = "HighH-WeakF"
QUADRANT_NAMES = (LOW_H_STRONG_F, HIGH_H_STRONG_F, LOW_H_WEAK_F, HIGH_H_WEAK_F)

HOMOPHILY_THRESHOLD = 0.70
F1_THRESHOLD = 0.85


@dataclass(frozen=True)
class ClassQuadrant:
    class_id: int
    quadrant: str
    homophily: float
    feature_f1: float
    delta_f1: float


@dataclass(frozen=True)
class QuadrantAssignment:
    assignments: tuple  # ClassQuadrant per usable class, ascending class id
    flagged: tuple  # class ids excluded for undefined inputs
    homophily_threshold: float
    f1_threshold: float

    def classes_in(self, quadrant: str) -> tuple:
        if quadrant not in QUADRANT_NAMES:
            raise InputError(f"unknown quadrant {quadrant!r}")
        return tuple(a.class_id for a in self.assignments if a.quadrant == quadrant)


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
                     f1_threshold: float = F1_THRESHOLD) -> QuadrantAssignment:
    """Place every class; classes with undefined homophily are flagged, not placed."""
    check_thresholds(homophily_threshold, f1_threshold)
    h = np.asarray(per_class_homophily, dtype=np.float64)
    f1 = np.asarray(per_class_lr_f1, dtype=np.float64)
    delta = np.asarray(per_class_delta, dtype=np.float64)
    if not (h.shape == f1.shape == delta.shape):
        raise InputError(
            f"per-class arrays disagree on length: {h.shape}, {f1.shape}, {delta.shape}"
        )
    assignments = []
    flagged = []
    for c in range(h.size):
        if math.isnan(h[c]) or math.isnan(f1[c]) or math.isnan(delta[c]):
            flagged.append(c)
            continue
        assignments.append(ClassQuadrant(
            class_id=c,
            quadrant=quadrant_of(h[c], f1[c], homophily_threshold, f1_threshold),
            homophily=float(h[c]), feature_f1=float(f1[c]), delta_f1=float(delta[c]),
        ))
    return QuadrantAssignment(
        assignments=tuple(assignments), flagged=tuple(flagged),
        homophily_threshold=homophily_threshold, f1_threshold=f1_threshold,
    )


def quadrant_summary(assignment: QuadrantAssignment) -> dict:
    """Per-quadrant membership and mean delta. Every quadrant key is present;
    an empty quadrant reports mean_delta None."""
    out = {}
    for name in QUADRANT_NAMES:
        members = [a for a in assignment.assignments if a.quadrant == name]
        out[name] = {
            "classes": [a.class_id for a in members],
            "mean_delta_f1": (float(np.mean([a.delta_f1 for a in members]))
                              if members else None),
        }
    out["flagged_classes"] = list(assignment.flagged)
    return out


def averaged_class_metrics(result: ExperimentResult, masking_rates=MASKING_RATES):
    """Per-class LR F1 and per-class (GCN - LR) F1, averaged over masking rates.

    Uses the original-feature cells only. Any missing or failed cell makes the
    average meaningless, so that is an error rather than a silent skip.
    """
    lr_rows, delta_rows = [], []
    for rate in masking_rates:
        try:
            lr = result.cell("logreg", rate, "original")
            gcn = result.cell("gcn", rate, "original")
        except KeyError as exc:
            raise InputError(str(exc))
        if lr.scores is None or gcn.scores is None:
            bad = lr if lr.scores is None else gcn
            raise InputError(
                f"cell {cell_key(bad.model, rate, 'original')} failed "
                f"({bad.error}); cannot average"
            )
        lr_rows.append(lr.scores.per_class_f1)
        delta_rows.append(delta_f1(gcn.scores, lr.scores)[1])
    return (np.mean(lr_rows, axis=0), np.mean(delta_rows, axis=0))
