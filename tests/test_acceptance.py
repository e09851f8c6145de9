"""Acceptance gate: one test per shipping criterion, each printing a
"[acceptance] criterion N: PASS/FAIL" line. Criteria 4-6 train real models on
n=2000 synthetic graphs with frozen seeds; their signal strengths were
calibrated so the asserted orderings hold with margin, not at knife edge.
Criterion 8 needs a locally supplied product co-purchase container and skips
otherwise.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import gcndiag as gd
from gcndiag.cli import main as cli_main
from gcndiag.protocol import derive_seed
from gcndiag.report import load_report, stable_form

from conftest import (brute_edge_homophily, brute_neighbor_distribution,
                      random_edge_list)
from test_metrics import HAND_CASES
from test_quadrant import REFERENCE_CLASSES, REFERENCE_MEMBERSHIP

AMAZON_ENV = "GCNDIAG_AMAZON_DIR"
SEEDS = range(5)


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num}: {status}{suffix}")
    assert ok, f"criterion {num}: {detail}"


def protocol_cell(n, C, h, deg, d, signal, masking, seed):
    """One (dataset, split, GCN, LR) evaluation with fully derived seeds."""
    spec = gd.SyntheticSpec(n=n, num_classes=C, target_homophily=h,
                            avg_degree=deg, dim=d, signal=signal,
                            seed=derive_seed(seed, "graph", h))
    g, y = gd.generate_graph(spec)
    x = gd.generate_features(y, d, signal, seed=derive_seed(seed, "feat", signal))
    a = gd.normalized_adjacency(g)
    split = gd.make_split(y, masking, seed=seed, num_classes=C)
    cfg = gd.GcnConfig(seed=derive_seed(seed, "gcn", h, signal))
    trained = gd.train_gcn(cfg, a, x, y, split, C)
    pred = gd.gcn_predict(trained.params, a, x)
    gcn_f1 = gd.score(pred[split.test_idx], y[split.test_idx], C).macro_f1
    lr = gd.fit_baseline("logreg", x, y, split.visible_idx,
                         derive_seed(seed, "lr", h, signal), C)
    lr_f1 = gd.score(lr.predictions[split.test_idx], y[split.test_idx],
                     C).macro_f1
    return gcn_f1, lr_f1


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    try:
        worst, count, largest = gd.gradient_check(num_instances=50, seed=0)
    except AssertionError as exc:
        _report(1, False, str(exc))
        return
    elapsed = time.monotonic() - start
    ok = count == 50 and worst <= 1e-5 and elapsed < 30.0
    _report(1, ok, f"50 instances, worst {worst:.2e}, largest |analytic - "
                   f"numeric| {largest:.2e} against a floor of "
                   f"{gd.gcn.GRADCHECK_MIN_MAGNITUDE:.0e}, {elapsed:.1f}s")


def test_criterion_2_homophily_oracle(six_node_case):
    rng = np.random.default_rng(100)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        C = int(rng.integers(1, 7))
        edges = random_edge_list(rng, n, 3.0 / n)
        y = rng.integers(0, C, size=n)
        g = gd.build_graph(edges, n)
        want_h = brute_edge_homophily(edges, y)
        got_h = gd.edge_homophily(g, y)
        same_h = (math.isnan(got_h) and math.isnan(want_h)) or got_h == want_h
        want_m = brute_neighbor_distribution(edges, y, C)
        got_m = gd.neighbor_distribution(g, y, C)
        same_m = np.array_equal(got_m, want_m, equal_nan=True)
        same_d = np.array_equal(gd.homophily_report(g, y, C)["per_class"],
                                np.diag(want_m), equal_nan=True)
        mismatches += not (same_h and same_m and same_d)

    edges, y, expected = six_node_case
    g = gd.build_graph(edges, 6)
    hand_ok = (
        gd.edge_homophily(g, y) == expected["overall"]
        and np.array_equal(gd.neighbor_distribution(g, y, 3), expected["matrix"])
        and np.array_equal(gd.homophily_report(g, y, 3)["per_class"],
                           expected["per_class"])
    )
    ok = mismatches == 0 and hand_ok
    _report(2, ok, f"100 random graphs, {mismatches} mismatches, "
                   f"hand case {'ok' if hand_ok else 'WRONG'}")


def test_criterion_3_metric_oracle():
    bad = []
    for i, (pred, truth, C, f1, absent) in enumerate(HAND_CASES):
        s = gd.score(np.array(pred), np.array(truth), C)
        if not (np.allclose(s.per_class_f1, f1, rtol=0, atol=1e-15)
                and s.absent_classes == absent):
            bad.append(i)
    col = [.889, .853, .938, .819, .877, .946, .572, .869, .730, .853]
    column_ok = round(float(np.mean(col)), 3) == .835
    ok = not bad and column_ok
    _report(3, ok, f"{len(HAND_CASES)} hand cases, {len(bad)} wrong; "
                   f"per-class column mean rounds to .835: {column_ok}")


def test_criterion_4_structure_only():
    start = time.monotonic()
    gcn_scores, lr_scores = [], []
    for seed in SEEDS:
        g_f1, l_f1 = protocol_cell(n=2000, C=10, h=0.9, deg=30.0, d=64,
                                   signal=0.0, masking=0.0, seed=seed)
        gcn_scores.append(g_f1)
        lr_scores.append(l_f1)
    elapsed = time.monotonic() - start
    gcn_mean = float(np.mean(gcn_scores))
    lr_mean = float(np.mean(lr_scores))
    ok = gcn_mean >= 0.85 and lr_mean <= 0.15 and elapsed < 180.0
    _report(4, ok, f"gcn {gcn_mean:.3f} (need >= 0.85), "
                   f"lr {lr_mean:.3f} (need <= 0.15), {elapsed:.0f}s")


def test_criterion_5_scarcity_trend():
    deltas_0, deltas_90, lr_at_0 = [], [], []
    for seed in SEEDS:
        g0, l0 = protocol_cell(n=2000, C=10, h=0.9, deg=30.0, d=64,
                               signal=2.75, masking=0.0, seed=seed)
        g9, l9 = protocol_cell(n=2000, C=10, h=0.9, deg=30.0, d=64,
                               signal=2.75, masking=0.9, seed=seed)
        deltas_0.append(g0 - l0)
        deltas_90.append(g9 - l9)
        lr_at_0.append(l0)
    lr_mean = float(np.mean(lr_at_0))
    d0 = float(np.mean(deltas_0))
    d90 = float(np.mean(deltas_90))
    in_band = 0.75 <= lr_mean <= 0.9
    ok = in_band and d90 >= d0
    _report(5, ok, f"lr at 0% {lr_mean:.3f} (band 0.75-0.9), "
                   f"mean delta 90% {d90:+.3f} >= 0% {d0:+.3f}")


def test_criterion_6_quadrant_pattern():
    start = time.monotonic()
    weak, strong = 0.8, 3.5
    cells = {}
    for h in (0.45, 0.9):
        for signal in (weak, strong):
            pairs = [protocol_cell(n=2000, C=5, h=h, deg=10.0, d=32,
                                   signal=signal, masking=0.9, seed=s)
                     for s in SEEDS]
            gcn_mean = float(np.mean([p[0] for p in pairs]))
            lr_mean = float(np.mean([p[1] for p in pairs]))
            cells[(h, signal)] = (gcn_mean, lr_mean, gcn_mean - lr_mean)
    elapsed = time.monotonic() - start

    bands_ok = (cells[(0.45, weak)][1] <= 0.6 and cells[(0.9, weak)][1] <= 0.6
                and cells[(0.45, strong)][1] >= 0.95
                and cells[(0.9, strong)][1] >= 0.95)
    helps = (cells[(0.45, weak)][2] > 0 and cells[(0.9, weak)][2] > 0
             and cells[(0.9, strong)][2] > 0)
    hurts = cells[(0.45, strong)][2] < 0
    ok = bands_ok and helps and hurts and elapsed < 600.0
    detail = ", ".join(
        f"h={h} s={s}: d{cells[(h, s)][2]:+.3f}" for h, s in cells)
    _report(6, ok, f"{detail}; bands {'ok' if bands_ok else 'violated'}, "
                   f"{elapsed:.0f}s")


def test_criterion_7_quadrant_assignment_exactness():
    h, f1, d = (np.array(col) for col in zip(*REFERENCE_CLASSES))
    section = gd.assign_quadrants(h, f1, d)
    wrong = []
    for name, members in REFERENCE_MEMBERSHIP.items():
        if section[name]["classes"] != members:
            wrong.append(name)
    ok = not wrong and section["flagged_classes"] == []
    _report(7, ok, "all 10 classes placed as published"
            if ok else f"mismatched quadrants: {wrong}")


def test_criterion_8_dataset_integration():
    path = os.environ.get(AMAZON_ENV, "")
    if not path:
        print(f"[acceptance] criterion 8: SKIP (set {AMAZON_ENV} to a "
              "container directory to enable)")
        pytest.skip("no co-purchase dataset container supplied")
    ds = gd.load_dataset(path)
    shape_ok = (ds.graph.n == 13752 and ds.x.shape[1] == 767
                and ds.num_classes == 10)
    overall = gd.edge_homophily(ds.graph, ds.y)
    per_class = gd.homophily_report(ds.graph, ds.y, 10)["per_class"]
    table6 = [0.669, 0.604, 0.888, 0.509, 0.859, 0.915, 0.511, 0.905,
              0.665, 0.779]
    hom_ok = (abs(overall - 0.777) <= 0.002
              and np.all(np.abs(per_class - table6) <= 0.005))

    a = gd.normalized_adjacency(ds.graph)
    gcn_scores, lr_scores = [], []
    for seed in range(3):
        split = gd.make_split(ds.y, 0.0, seed=seed, num_classes=10)
        cfg = gd.GcnConfig(dropout_rate=0.5, weight_decay=5e-4,
                           seed=derive_seed(seed, "gcn"))
        trained = gd.train_gcn(cfg, a, ds.x, ds.y, split, 10)
        pred = gd.gcn_predict(trained.params, a, ds.x)
        gcn_scores.append(
            gd.score(pred[split.test_idx], ds.y[split.test_idx], 10).macro_f1)
        lr = gd.fit_baseline("logreg", ds.x, ds.y, split.visible_idx,
                             derive_seed(seed, "lr"), 10)
        lr_scores.append(gd.score(lr.predictions[split.test_idx],
                                  ds.y[split.test_idx], 10).macro_f1)
    gcn_mean = float(np.mean(gcn_scores))
    lr_mean = float(np.mean(lr_scores))
    model_ok = abs(gcn_mean - 0.853) <= 0.03 and abs(lr_mean - 0.833) <= 0.03
    ok = shape_ok and hom_ok and model_ok
    _report(8, ok, f"shapes {shape_ok}, homophily {overall:.3f} "
                   f"(hom ok {hom_ok}), gcn {gcn_mean:.3f}, lr {lr_mean:.3f}")


def test_criterion_9_run_determinism(tmp_path):
    ds_dir = str(tmp_path / "ds")
    rc = cli_main(["synth", "--n", "120", "--classes", "3", "--homophily",
                   "0.85", "--degree", "6", "--dim", "6", "--signal", "1.5",
                   "--seed", "11", "--out", ds_dir])
    assert rc == 0
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    flags = ["run", ds_dir, "--seed", "7", "--epochs", "60"]
    assert cli_main(flags + ["--out", out1]) == 0
    assert cli_main(flags + ["--out", out2]) == 0
    r1 = stable_form(load_report(out1))
    r2 = stable_form(load_report(out2))
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    ok = b1 == b2
    _report(9, ok, f"{len(r1['grid']['cells'])} cells, byte-identical "
                   "after dropping the volatile key" if ok else "reports differ")
