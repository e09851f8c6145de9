"""Classification metrics: per-class F1, macro-F1, confusion analysis."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError, check_labels


@dataclass(frozen=True)
class ModelScores:
    """Per-class F1, their unweighted mean, and the raw confusion counts.

    ``confusion`` rows index the true class, columns the predicted class.
    ``absent_classes`` flags classes that appear in neither truth nor
    prediction; their F1 is defined as 0 rather than silently inflating the
    macro average.
    """

    per_class_f1: np.ndarray
    macro_f1: float
    confusion: np.ndarray
    absent_classes: tuple = field(default=())


def _check_pair(pred, truth, num_classes):
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    if pred.size == 0:
        raise InputError("cannot score an empty evaluation set")
    return (check_labels(pred, num_classes, "pred label"),
            check_labels(truth, num_classes, "truth label"))


def confusion_matrix(pred, truth, num_classes: int) -> np.ndarray:
    pred, truth = _check_pair(pred, truth, num_classes)
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return counts


def score(pred, truth, num_classes: int) -> ModelScores:
    """Per-class F1 (0/0 defined as 0), macro-F1, and the confusion matrix."""
    counts = confusion_matrix(pred, truth, num_classes)
    tp = np.diagonal(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.zeros(num_classes, dtype=np.float64)
    nonzero = denom > 0
    f1[nonzero] = 2 * tp[nonzero] / denom[nonzero]
    absent = tuple(int(c) for c in np.flatnonzero(denom == 0))
    return ModelScores(
        per_class_f1=f1,
        macro_f1=float(f1.mean()),
        confusion=counts,
        absent_classes=absent,
    )


def macro_f1_over_present(pred, truth, num_classes: int) -> float:
    """Macro-F1 restricted to classes present in the truth vector."""
    s = score(pred, truth, num_classes)
    present = s.confusion.sum(axis=1) > 0
    return float(s.per_class_f1[present].mean())


def delta_f1(gcn: ModelScores, lr: ModelScores):
    """(macro delta, per-class delta vector), elementwise GCN minus baseline."""
    if gcn.per_class_f1.shape != lr.per_class_f1.shape:
        raise ShapeError("score vectors have different class counts")
    return (
        float(gcn.macro_f1 - lr.macro_f1),
        gcn.per_class_f1 - lr.per_class_f1,
    )


def retention(original: float, ablated: float) -> float:
    """Ablated macro-F1 as a percentage of the original; NaN if original is 0."""
    if original <= 0:
        return float("nan")
    return 100.0 * ablated / original
