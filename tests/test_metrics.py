import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from gcndiag import (CellResult, ExperimentResult, ModelScores,
                     confusion_matrix, delta_f1, retention, score)
from gcndiag.errors import ShapeError
from gcndiag.metrics import macro_f1_over_present
from gcndiag.report import jsonable

from conftest import brute_f1

# (pred, truth, C, per-class F1, absent classes) worked out by hand
HAND_CASES = [
    ([0, 1, 1, 0], [0, 1, 0, 1], 2, [0.5, 0.5], ()),
    ([0, 1, 2], [0, 1, 2], 3, [1.0, 1.0, 1.0], ()),
    ([1, 1], [0, 0], 2, [0.0, 0.0], ()),
    ([0, 0], [0, 0], 2, [1.0, 0.0], (1,)),
    ([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 2, 1], 3, [2 / 3, 0.5, 0.8], ()),
    ([2], [2], 3, [0.0, 0.0, 1.0], (0, 1)),
    ([0], [1], 2, [0.0, 0.0], ()),
    ([0, 0, 0, 1], [0, 1, 1, 1], 2, [0.5, 0.5], ()),
    ([1, 1, 2], [1, 2, 2], 4, [0.0, 2 / 3, 2 / 3, 0.0], (0, 3)),
    ([0, 1, 2, 0, 1, 2, 0, 1, 2, 0], [0, 0, 0, 1, 1, 1, 2, 2, 2, 0], 3,
     [0.5, 1 / 3, 1 / 3], ()),
]


@pytest.mark.parametrize("pred,truth,C,f1,absent", HAND_CASES)
def test_score_hand_cases(pred, truth, C, f1, absent):
    s = score(np.array(pred), np.array(truth), C)
    assert np.allclose(s.per_class_f1, f1)
    assert s.macro_f1 == pytest.approx(float(np.mean(f1)))
    assert s.absent_classes == absent


def test_score_matches_brute_force_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        C = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, C, size=n)
        truth = rng.integers(0, C, size=n)
        s = score(pred, truth, C)
        assert np.allclose(s.per_class_f1, brute_f1(pred, truth, C))


def test_reported_macro_equals_mean_of_per_class_column():
    gcn_col = [.889, .853, .938, .819, .877, .946, .572, .869, .730, .853]
    lr_col = [.661, .830, .877, .849, .877, .830, .455, .849, .764, .754]
    assert round(float(np.mean(gcn_col)), 3) == .835
    assert round(float(np.mean(lr_col)), 3) == .775


def test_confusion_rows_are_true_classes():
    conf = confusion_matrix(np.array([1, 1, 0]), np.array([0, 1, 2]), 3)
    expected = np.array([
        [0, 1, 0],
        [0, 1, 0],
        [1, 0, 0],
    ])
    assert (conf == expected).all()
    assert conf.sum() == 3


def test_score_length_mismatch():
    with pytest.raises(ShapeError):
        score(np.array([0, 1]), np.array([0]), 2)


def test_delta_f1():
    a = score(np.array([0, 1]), np.array([0, 1]), 2)
    b = score(np.array([0, 0]), np.array([0, 1]), 2)
    macro, per_class = delta_f1(a, b)
    assert macro == pytest.approx(a.macro_f1 - b.macro_f1)
    assert np.allclose(per_class, a.per_class_f1 - b.per_class_f1)
    three = score(np.array([0, 2]), np.array([0, 1]), 3)
    with pytest.raises(ShapeError, match="different class counts"):
        delta_f1(a, three)


def test_macro_f1_over_present_ignores_missing_truth_classes():
    pred = np.array([0, 1, 0])
    truth = np.array([0, 1, 1])
    # class 2 absent from truth entirely; present-classes mean only
    full = score(pred, truth, 3)
    present = macro_f1_over_present(pred, truth, 3)
    assert present == pytest.approx(float(full.per_class_f1[:2].mean()))
    assert present > full.macro_f1


def test_retention():
    assert retention(0.8, 0.6) == pytest.approx(75.0)
    assert retention(0.5, 0.5) == pytest.approx(100.0)
    assert math.isnan(retention(0.0, 0.3))


def test_model_scores_round_trip():
    s = score(np.array([0, 1, 1]), np.array([0, 1, 2]), 4)
    cell = CellResult(model="logreg", masking_rate=0.0,
                      feature_mode="original", scores=s)
    result = ExperimentResult(base_seed=0, num_classes=4,
                              cells={"logreg:0:original": cell})
    stored = json.loads(json.dumps(jsonable(asdict(result))))
    again = ExperimentResult.from_dict(stored).cells["logreg:0:original"].scores
    assert np.allclose(again.per_class_f1, s.per_class_f1)
    assert again.macro_f1 == s.macro_f1
    assert (again.confusion == s.confusion).all()
    assert again.absent_classes == s.absent_classes == (3,)
    # reports written before absent_classes existed still load
    del stored["cells"]["logreg:0:original"]["scores"]["absent_classes"]
    older = ExperimentResult.from_dict(stored).cells["logreg:0:original"].scores
    assert older.absent_classes == ()
