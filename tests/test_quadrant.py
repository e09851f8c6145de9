from dataclasses import replace

import numpy as np
import pytest

from gcndiag import (InputError, assign_quadrants, averaged_class_metrics,
                     generate_features, generate_graph, normalized_adjacency,
                     run_grid)
from gcndiag.quadrant import (F1_THRESHOLD, HIGH_H_STRONG_F, HIGH_H_WEAK_F,
                              HOMOPHILY_THRESHOLD, LOW_H_STRONG_F,
                              LOW_H_WEAK_F, QUADRANT_NAMES, quadrant_of)
from gcndiag.synth import SyntheticSpec

# reference 10-class diagnostic: (homophily, feature-only F1, delta F1)
REFERENCE_CLASSES = [
    (0.669, 0.732, +0.163),
    (0.604, 0.853, +0.007),
    (0.888, 0.902, +0.045),
    (0.509, 0.882, -0.053),
    (0.859, 0.882, -0.005),
    (0.915, 0.888, +0.057),
    (0.511, 0.522, +0.065),
    (0.905, 0.871, +0.030),
    (0.665, 0.756, -0.003),
    (0.779, 0.835, +0.019),
]
REFERENCE_MEMBERSHIP = {
    LOW_H_STRONG_F: [1, 3],
    HIGH_H_STRONG_F: [2, 4, 5, 7],
    LOW_H_WEAK_F: [0, 6, 8],
    HIGH_H_WEAK_F: [9],
}


def test_reference_classes_assigned_exactly():
    h, f1, d = (np.array(col) for col in zip(*REFERENCE_CLASSES))
    section = assign_quadrants(h, f1, d)
    assert section["flagged_classes"] == []
    for name, members in REFERENCE_MEMBERSHIP.items():
        assert section[name]["classes"] == members


def test_reference_mean_deltas():
    h, f1, d = (np.array(col) for col in zip(*REFERENCE_CLASSES))
    summary = assign_quadrants(h, f1, d)
    assert summary[LOW_H_STRONG_F]["mean_delta_f1"] == pytest.approx(-0.023)
    assert summary[HIGH_H_STRONG_F]["mean_delta_f1"] == pytest.approx(0.03175)
    assert summary[LOW_H_WEAK_F]["mean_delta_f1"] == pytest.approx(0.075)
    assert summary[HIGH_H_WEAK_F]["mean_delta_f1"] == pytest.approx(0.019)


def test_boundary_values_fall_to_low_side():
    paper = (HOMOPHILY_THRESHOLD, F1_THRESHOLD)
    assert paper == (0.70, 0.85)
    assert quadrant_of(0.70, 0.85, *paper) == LOW_H_WEAK_F
    assert quadrant_of(0.700001, 0.850001, *paper) == HIGH_H_STRONG_F
    assert quadrant_of(0.70, 0.86, *paper) == LOW_H_STRONG_F
    assert quadrant_of(0.71, 0.85, *paper) == HIGH_H_WEAK_F


def test_custom_thresholds():
    section = assign_quadrants([0.5], [0.5], [0.1],
                               homophily_threshold=0.4, f1_threshold=0.6)
    assert section["per_class"][0]["quadrant"] == HIGH_H_WEAK_F


def test_nan_inputs_are_flagged_not_assigned():
    summary = assign_quadrants([0.9, np.nan, 0.5],
                               [0.9, 0.9, np.nan],
                               [0.1, 0.1, 0.1])
    assert [row["class_id"] for row in summary["per_class"]] == [0]
    assert summary["flagged_classes"] == [1, 2]


def test_summary_has_all_quadrants():
    summary = assign_quadrants([0.9], [0.9], [0.05])
    for name in QUADRANT_NAMES:
        assert name in summary
    assert summary[HIGH_H_STRONG_F]["classes"] == [0]
    assert summary[LOW_H_WEAK_F]["classes"] == []
    assert summary[LOW_H_WEAK_F]["mean_delta_f1"] is None


def test_mismatched_lengths_rejected():
    with pytest.raises(InputError):
        assign_quadrants([0.5, 0.6], [0.5], [0.1, 0.2])


def test_averaged_class_metrics_from_grid():
    spec = SyntheticSpec(n=150, num_classes=3, target_homophily=0.85,
                         avg_degree=6.0, dim=6, signal=1.5, seed=21)
    g, y = generate_graph(spec)
    x = generate_features(y, 6, 1.5, seed=22)
    a = normalized_adjacency(g)
    result = run_grid(a, x, y, num_classes=3, base_seed=8, models=("gcn", "logreg"),
                      feature_modes=("original",))
    lr_f1, delta = averaged_class_metrics(result)
    assert lr_f1.shape == (3,)
    assert delta.shape == (3,)
    manual_lr = np.mean(
        [result.cells[f"logreg:{pct}:original"].scores.per_class_f1
         for pct in (0, 50, 90)],
        axis=0)
    assert np.array_equal(lr_f1, manual_lr)

    # a grid averages over the rates its own cells hold
    partial = run_grid(a, x, y, num_classes=3, base_seed=8, models=("gcn", "logreg"),
                       masking_rates=(0.9, 0.0), feature_modes=("original",))
    manual_0_90 = np.mean(
        [partial.cells[f"logreg:{pct}:original"].scores.per_class_f1
         for pct in (0, 90)], axis=0)
    assert np.array_equal(averaged_class_metrics(partial)[0], manual_0_90)
    assert not np.array_equal(manual_0_90, manual_lr)
    holey = replace(result, cells={key: cell for key, cell in result.cells.items()
                                   if key != "logreg:50:original"})
    with pytest.raises(InputError, match="^no cell 'logreg:50:original' in this run$"):
        averaged_class_metrics(holey)
    with pytest.raises(InputError, match="^no masking rates to average over$"):
        averaged_class_metrics(replace(result, cells={}))

    lr_90 = result.cells["logreg:90:original"]
    result.cells["logreg:90:original"] = replace(
        lr_90, scores=None, error="RuntimeError: boom")
    with pytest.raises(InputError, match="cell logreg:90:original failed"):
        averaged_class_metrics(result)
