import json
from dataclasses import asdict

import numpy as np
import pytest

import gcndiag.baselines
import gcndiag.parallel
import gcndiag.protocol
from gcndiag import (GcnConfig, InputError, ablate_features, apply_masking,
                     averaged_class_metrics, build_graph, build_report,
                     carve_validation, derive_seed, generate_features,
                     generate_graph, make_split, normalized_adjacency,
                     run_grid, stratified_split)
from gcndiag.protocol import masking_percent
from gcndiag.report import jsonable
from gcndiag.synth import SyntheticSpec


def test_derive_seed_frozen_values():
    # frozen reference values; a change here silently reshuffles every split
    assert derive_seed(0, "split") == 6394492921669977765
    assert derive_seed(0, "mask") == 6916287089139834623
    assert derive_seed(7, "gcn", 50, "original") == 4844291297921623869


def test_derive_seed_properties():
    a = derive_seed(0, "split")
    assert a == derive_seed(0, "split")
    assert a != derive_seed(1, "split")
    assert a != derive_seed(0, "mask")
    assert derive_seed(3, "x", 1) != derive_seed(3, "x", 2)
    assert 0 <= a < 2**63
    # any integer is a base seed, a negative or a numpy one too
    assert derive_seed(np.int64(3), "x") == derive_seed(3, "x")
    assert derive_seed(-1, "x") != derive_seed(1, "x")


@pytest.mark.parametrize("base_seed", [1.5, 1.0, np.float64(1.0), True, "1",
                                       None])
def test_derive_seed_refuses_a_base_seed_that_is_not_an_integer(base_seed):
    # 1.5 would otherwise run seed 1's draws under the name 1.5
    with pytest.raises(InputError) as exc:
        derive_seed(base_seed, "x")
    assert str(exc.value) == f"base seed must be an integer, got {base_seed!r}"


def labels(counts):
    return np.concatenate([np.full(c, i) for i, c in enumerate(counts)])


def test_stratified_split_counts():
    y = labels([10, 7, 3])
    train, test = stratified_split(y, seed=0)
    assert sorted(np.concatenate([train, test])) == list(range(20))
    assert np.intersect1d(train, test).size == 0
    # per class: floor(n_c * 0.8 + 0.5) = 8, 6, 2
    assert list(np.bincount(y[train], minlength=3)) == [8, 6, 2]
    assert list(np.bincount(y[test], minlength=3)) == [2, 1, 1]
    assert list(train) == sorted(train)


def test_stratified_split_keeps_both_sides_nonempty():
    y = labels([2, 2])
    train, test = stratified_split(y, seed=1)
    assert np.bincount(y[train], minlength=2).min() >= 1
    assert np.bincount(y[test], minlength=2).min() >= 1


def test_stratified_split_errors():
    with pytest.raises(InputError):
        stratified_split(labels([5, 1]), seed=0)


def test_masking_counts_and_floor():
    y = labels([20, 10, 3])
    train = np.arange(33)
    vis = apply_masking(y, train, 0.9, seed=0)
    # keep max(1, floor(0.1 * n_c + 0.5)) = 2, 1, 1
    assert list(np.bincount(y[vis], minlength=3)) == [2, 1, 1]
    vis50 = apply_masking(y, train, 0.5, seed=0)
    assert list(np.bincount(y[vis50], minlength=3)) == [10, 5, 2]


def test_masking_is_nested():
    rng = np.random.default_rng(16)
    y = rng.integers(0, 4, size=200)
    train = np.sort(rng.choice(200, size=160, replace=False))
    previous = set(train)
    for rate in (0.0, 0.3, 0.5, 0.7, 0.9):
        vis = set(apply_masking(y, train, rate, seed=5))
        assert vis <= previous
        previous = vis


def test_masking_rejects_bad_rate():
    y = labels([4, 4])
    with pytest.raises(InputError):
        apply_masking(y, np.arange(8), 1.0, seed=0)
    with pytest.raises(InputError):
        apply_masking(y, np.arange(8), -0.1, seed=0)


def test_carve_validation_counts():
    y = labels([10, 5, 1])
    vis = np.arange(16)
    sub, val = carve_validation(y, vis, seed=0)
    assert sorted(np.concatenate([sub, val])) == list(range(16))
    # n_val = min(n_c - 1, max(1, floor(n_c/5 + 0.5))) = 2, 1, 0
    assert list(np.bincount(y[val], minlength=3)) == [2, 1, 0]
    assert 15 in sub  # the lone class-2 node stays trainable


def test_carve_validation_rejects_empty_visible_set():
    with pytest.raises(InputError, match="empty visible set"):
        carve_validation(labels([3, 3]), np.array([], dtype=np.int64), 0)


def test_make_split_structure():
    y = labels([40, 30, 30])
    split = make_split(y, 0.5, seed=2, num_classes=3)
    assert np.intersect1d(split.train_idx, split.test_idx).size == 0
    assert set(split.visible_idx) <= set(split.train_idx)
    assert set(split.subtrain_idx) | set(split.val_idx) == set(split.visible_idx)
    assert np.intersect1d(split.subtrain_idx, split.val_idx).size == 0
    assert split.masking_rate == 0.5
    # masked-but-true-labeled train nodes stay out of every labeled subset
    hidden = set(split.train_idx) - set(split.visible_idx)
    assert hidden and not (hidden & set(split.subtrain_idx))


def test_make_split_nesting_across_rates():
    y = labels([50, 40, 30])
    v0 = set(make_split(y, 0.0, seed=3, num_classes=3).visible_idx)
    v5 = set(make_split(y, 0.5, seed=3, num_classes=3).visible_idx)
    v9 = set(make_split(y, 0.9, seed=3, num_classes=3).visible_idx)
    assert v9 <= v5 <= v0


def test_make_split_too_thin():
    y = labels([2, 2])
    with pytest.raises(InputError):
        make_split(y, 0.9, seed=0, num_classes=2)


def test_ablate_features():
    x = np.full((400, 30), 7.0)
    r1 = ablate_features(x, seed=1)
    r2 = ablate_features(x, seed=1)
    r3 = ablate_features(x, seed=2)
    assert r1.shape == x.shape
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
    assert abs(r1.mean()) < 0.05
    assert abs(r1.std() - 1.0) < 0.05


def small_dataset(seed=20):
    spec = SyntheticSpec(n=150, num_classes=3, target_homophily=0.85,
                         avg_degree=6.0, dim=6, signal=1.5, seed=seed)
    g, y = generate_graph(spec)
    x = generate_features(y, 6, 1.5, seed=seed + 1)
    return normalized_adjacency(g), x, y


def test_run_grid_complete_and_deterministic():
    a, x, y = small_dataset()
    first = run_grid(a, x, y, num_classes=3, base_seed=4)
    second = run_grid(a, x, y, num_classes=3, base_seed=4)

    assert len(first.cells) == 18
    for model in ("gcn", "logreg", "svm"):
        for pct in (0, 50, 90):
            for mode in ("original", "random"):
                assert f"{model}:{pct}:{mode}" in first.cells
    assert jsonable(asdict(first)) == jsonable(asdict(second))
    assert all(not c.error for c in first.cells.values())
    # each model's own summary() is the record its cells report
    for cell in first.cells.values():
        assert set(cell.selected_hyper) == (
            {"best_epoch", "stopped_epoch", "warnings"} if cell.model == "gcn"
            else {"selected_reg", "unconverged_reg"})


def test_run_grid_records_cell_failure(monkeypatch):
    a, x, y = small_dataset()

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(gcndiag.baselines, "train_logreg", boom)
    result = run_grid(a, x, y, num_classes=3, base_seed=4)
    lr_cells = [c for k, c in result.cells.items() if k.startswith("logreg")]
    assert lr_cells and all(c.scores is None for c in lr_cells)
    assert all("synthetic failure" in c.error for c in lr_cells)
    gcn_cells = [c for k, c in result.cells.items() if k.startswith("gcn")]
    assert all(c.scores is not None for c in gcn_cells)
    report = build_report("fp", {}, {}, result)
    assert report["delta_f1"]["original"]["0"] is None
    assert report["retention"]["logreg"]["0"] is None
    assert report["retention"]["gcn"]["0"] is not None


def test_run_grid_reports_unconverged_baseline_fits(monkeypatch):
    a, x, y = small_dataset()
    monkeypatch.setattr(gcndiag.baselines, "LBFGS_MAX_ITER", 2)
    result = run_grid(a, x, y, num_classes=3, base_seed=4, models=("logreg", "svm"),
                      masking_rates=(0.0,), feature_modes=("original",))
    assert result.cells["logreg:0:original"].selected_hyper["unconverged_reg"] \
        == list(gcndiag.baselines.LOGREG_C_GRID)
    assert result.cells["svm:0:original"].selected_hyper["unconverged_reg"] \
        == list(gcndiag.baselines.SVM_C_GRID)


def test_run_grid_propagates_features_once_per_mode(monkeypatch):
    # Two GCN cells on one feature mode: one d-wide A_hat X outside training,
    # and nothing more, since each cell scores the predictions its training
    # made.
    import gcndiag.gcn
    import gcndiag.graph
    a, x, y = small_dataset()
    widths = []
    training = []
    spmm, train_gcn = gcndiag.graph.spmm, gcndiag.gcn.train_gcn

    def counting(adj, m):
        if not training:
            widths.append(m.shape[1])
        return spmm(adj, m)

    def traced_training(*args, **kwargs):
        training.append(True)
        try:
            return train_gcn(*args, **kwargs)
        finally:
            training.pop()

    monkeypatch.setattr(gcndiag.graph, "spmm", counting)
    monkeypatch.setattr(gcndiag.gcn, "spmm", counting)
    monkeypatch.setattr(gcndiag.gcn, "train_gcn", traced_training)
    # one core runs the cells here and two fork them where they can: either
    # way this process sees the shared propagation alone
    for cores in (1, 2):
        monkeypatch.setattr(gcndiag.parallel, "usable_cores", lambda: cores)
        widths.clear()
        result = run_grid(a, x, y, num_classes=3, base_seed=2, models=("gcn",),
                          masking_rates=(0.0, 0.5), feature_modes=("original",),
                          gcn_config=GcnConfig(hidden=8, max_epochs=5))
        assert all(not c.error for c in result.cells.values())
        assert widths == [x.shape[1]]


def test_run_grid_reports_gcn_warnings():
    # class 2 has 10 nodes: 8 train, 1 visible at 90% masking, which
    # carve_validation keeps for training, so that validation set lacks it
    rng = np.random.default_rng(5)
    y = np.repeat([0, 1, 2], [45, 45, 10])
    edges = sorted({tuple(sorted(map(int, rng.choice(100, 2, replace=False))))
                    for _ in range(300)})
    a = normalized_adjacency(build_graph(edges, 100))
    x = rng.standard_normal((100, 4)) + y[:, None]
    result = run_grid(a, x, y, num_classes=3, base_seed=3, models=("gcn",),
                      masking_rates=(0.0, 0.9), feature_modes=("original",),
                      gcn_config=GcnConfig(hidden=8, max_epochs=5))
    assert result.cells["gcn:0:original"].selected_hyper["warnings"] == []
    warned = result.cells["gcn:90:original"].selected_hyper["warnings"]
    assert len(warned) == 1 and "missing classes [2]" in warned[0]


def test_run_grid_rejects_non_finite_features(monkeypatch):
    a, x, y = small_dataset()
    x[10, 3] = np.nan

    def boom(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(gcndiag.baselines, "train_logreg", boom)
    with pytest.raises(InputError, match="row 10, column 3"):
        run_grid(a, x, y, num_classes=3, base_seed=4, models=("logreg",))


def test_run_grid_subset():
    a, x, y = small_dataset()
    result = run_grid(a, x, y, num_classes=3, base_seed=1, models=("logreg",),
                      masking_rates=(0.0,), feature_modes=("original",))
    assert list(result.cells) == ["logreg:0:original"]
    with pytest.raises(InputError, match="^no cell 'gcn:0:original' in this run$"):
        averaged_class_metrics(result)


def test_experiment_result_round_trip():
    a, x, y = small_dataset()
    result = run_grid(a, x, y, num_classes=3, base_seed=6, models=("gcn", "logreg"),
                      feature_modes=("original",))
    report = json.loads(json.dumps(build_report("fp", {}, {}, result)))
    cells, deltas = report["grid"]["cells"], report["delta_f1"]
    assert report["grid"] == jsonable(asdict(result))
    assert deltas["original"]["90"] is not None
    for pct in ("0", "50", "90"):  # each delta reads back from the grid
        assert deltas["original"][pct] == (
            cells[f"gcn:{pct}:original"]["scores"]["macro_f1"]
            - cells[f"logreg:{pct}:original"]["scores"]["macro_f1"])


def test_random_features_shared_across_cells():
    a, x, y = small_dataset()
    result = run_grid(a, x, y, num_classes=3, base_seed=2, models=("logreg",),
                      masking_rates=(0.0, 0.5), feature_modes=("random",))
    # same noise draw at both rates: identical split at rate 0 vs 0.5 would
    # differ, but the feature fingerprint must match; proxy through scores
    # being reproducible against a manual rerun of the same cell
    manual = run_grid(a, x, y, num_classes=3, base_seed=2, models=("logreg",),
                      masking_rates=(0.5,), feature_modes=("random",))
    assert (jsonable(asdict(result.cells["logreg:50:random"].scores))
            == jsonable(asdict(manual.cells["logreg:50:random"].scores)))


@pytest.mark.parametrize("grid, message", [
    ({"models": ("lr",)}, "unknown model 'lr'; choose from gcn, logreg, svm"),
    ({"models": ("lr", "GCN")}, "unknown model 'lr'"),
    ({"models": ("svm", "svm")}, "model 'svm' given twice"),
    ({"feature_modes": ("noise",)},
     "unknown feature mode 'noise'; choose from original, random"),
    ({"masking_rates": (0.0, 0.0)}, "masking percent 0 given twice"),
    ({"masking_rates": (0.5, 0.504)},
     "masking percent 50.4 is not a whole number"),
    ({"masking_rates": (0.505,)}, "masking percent 50.5 is not a whole number"),
    ({"masking_rates": (float("nan"),)},
     "masking percent nan is not a whole number"),
    ({"base_seed": 1.5}, "base seed must be an integer, got 1.5"),
    ({"base_seed": 1.5, "models": ("logreg",), "feature_modes": ("original",)},
     "base seed must be an integer, got 1.5"),
])
def test_run_grid_rejects_unknown_and_repeated_names_before_any_work(
        monkeypatch, grid, message):
    a, x, y = small_dataset()

    def boom(*args, **kwargs):
        raise AssertionError("run_grid split or forked before checking names")

    monkeypatch.setattr(gcndiag.protocol, "make_split", boom)
    monkeypatch.setattr(gcndiag.parallel, "fork_map", boom)
    with pytest.raises(InputError, match=message):
        run_grid(a, x, y, num_classes=3, **{"base_seed": 4, **grid})


def test_every_whole_percent_names_its_rate():
    assert [masking_percent(p / 100) for p in range(100)] == list(range(100))


@pytest.mark.parametrize("index, value, message", [
    (3, 1.5, "label at index 3 must be a whole number in [0, 3), got 1.5"),
    (0, np.nan, "label at index 0 must be a whole number in [0, 3), got nan"),
    (7, 3.0, "label at index 7 must be a whole number in [0, 3), got 3.0"),
    (2, -1.0, "label at index 2 must be a whole number in [0, 3), got -1.0"),
])
def test_run_grid_refuses_a_label_that_is_not_a_class_id_before_any_split(
        monkeypatch, index, value, message):
    a, x, y = small_dataset()
    y = y.astype(np.float64)
    y[index] = value
    monkeypatch.setattr(gcndiag.protocol, "make_split", lambda *args, **kw:
                        pytest.fail("run_grid split before checking labels"))
    with pytest.raises(InputError) as exc:
        run_grid(a, x, y, num_classes=3, models=("logreg",),
                 masking_rates=(0.0,), feature_modes=("original",))
    assert (str(exc.value), exc.value.index) == (message, index)


def test_run_grid_takes_whole_float_labels_as_class_ids():
    a, x, y = small_dataset()
    grid = {"num_classes": 3, "models": ("logreg",), "masking_rates": (0.5,),
            "feature_modes": ("original",)}
    as_ints = run_grid(a, x, y, **grid)
    as_floats = run_grid(a, x, y.astype(np.float64), **grid)
    assert jsonable(asdict(as_floats)) == jsonable(asdict(as_ints))
