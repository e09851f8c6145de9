import copy
import errno
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gcndiag.cli
from gcndiag import (CellResult, Dataset, ExperimentResult, InputError,
                     ModelScores, build_graph, build_report, generate_features,
                     generate_graph, load_dataset, load_report,
                     normalized_adjacency, run_grid, save_dataset, save_report)
from gcndiag.cli import (GCN_DROPOUT_GRID, GCN_HIDDEN_GRID, GCN_LR_GRID,
                         GCN_WD_GRID, main)
from gcndiag.report import jsonable, stable_form
from gcndiag.synth import SyntheticSpec


def tiny_dataset(seed=30, n=80, classes=3):
    spec = SyntheticSpec(n=n, num_classes=classes, target_homophily=0.85,
                         avg_degree=5.0, dim=4, signal=2.0, seed=seed)
    g, y = generate_graph(spec)
    x = generate_features(y, 4, 2.0, seed=seed + 1)
    return Dataset(name="tiny", graph=g, x=x.astype(np.float32).astype(np.float64),
                   y=y, num_classes=classes)


def test_dataset_round_trip(tmp_path):
    ds = tiny_dataset()
    save_dataset(ds, str(tmp_path / "ds"))
    back = load_dataset(str(tmp_path / "ds"))
    assert back.name == "tiny"
    assert back.num_classes == 3
    assert np.array_equal(back.graph.edge_array(), ds.graph.edge_array())
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.x, ds.x)  # values chosen to survive float32
    assert back.x.dtype == np.float64
    assert back.fingerprint() == ds.fingerprint()


def test_fingerprint_sensitive_to_content(tmp_path):
    ds = tiny_dataset()
    flipped = Dataset(name=ds.name, graph=ds.graph, x=ds.x,
                      y=np.where(ds.y == 0, 1, ds.y), num_classes=3)
    assert flipped.fingerprint() != ds.fingerprint()


def write_container(path, meta, edges, labels, features_bytes=None,
                    features_text=None):
    path.mkdir(exist_ok=True)
    (path / "meta.json").write_text(json.dumps(meta))
    (path / "edges.tsv").write_text(edges)
    (path / "labels.tsv").write_text(labels)
    if features_bytes is not None:
        (path / "features.bin").write_bytes(features_bytes)
    if features_text is not None:
        (path / "features.tsv").write_text(features_text)


GOOD_META = {"name": "t", "n": 3, "d": 2, "num_classes": 2}
GOOD_EDGES = "0\t1\n1\t2\n"
GOOD_LABELS = "0\n1\n1\n"
GOOD_FEATS = np.arange(6, dtype="<f4").tobytes()


def test_load_minimal_container(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    GOOD_FEATS)
    ds = load_dataset(str(tmp_path / "c"))
    assert ds.graph.n == 3
    assert ds.graph.num_edges == 2
    assert ds.x.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


def test_features_tsv_fallback(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    features_text="0.5\t1.5\n2.5\t3.5\n4.5\t5.5\n")
    ds = load_dataset(str(tmp_path / "c"))
    assert ds.x[2, 1] == 5.5


def test_binary_features_win_over_tsv(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    GOOD_FEATS, "9\t9\n9\t9\n9\t9\n")
    ds = load_dataset(str(tmp_path / "c"))
    assert ds.x[0, 0] == 0.0


def test_duplicate_edge_names_its_line(tmp_path):
    write_container(tmp_path / "c", GOOD_META, "0\t1\n1\t2\n0\t1\n",
                    GOOD_LABELS, GOOD_FEATS)
    with pytest.raises(InputError, match=r"duplicate edge \(0, 1\).*line 1") as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 3
    assert exc.value.path.endswith("edges.tsv")


def test_cli_run_and_tune_never_import_scipy_optimize(tmp_path):
    ds_dir = make_container(tmp_path, n=60, classes=2, homophily=0.9,
                            degree=4, signal=3.0)
    out = str(tmp_path / "out.json")
    code = "\n".join([
        "import sys",
        "from gcndiag.cli import main",
        f"assert main(['run', {ds_dir!r}, '--out', {out!r}]) == 0",
        f"assert main(['tune', {ds_dir!r}, '--epochs', '2', '--out', {out!r}]) == 0",
        "sys.exit(3 if 'scipy.optimize' in sys.modules else 0)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=300)
    assert done.returncode == 0


def test_benchmark_tracer_finds_every_name_it_patches():
    """The benchmark's tracer patches program functions by name; a rename
    must fail here rather than only in a traced benchmark run."""
    probe = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "perfbench", "probe.py")
    code = ("import importlib.util, json; "
            f"spec = importlib.util.spec_from_file_location('probe', {probe!r}); "
            "probe = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(probe); "
            "tracer = probe.Tracer(); probe.install(tracer); "
            "print(json.dumps(tracer.missing))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_missing_directory():
    with pytest.raises(InputError):
        load_dataset("/no/such/place")


def test_meta_errors(tmp_path):
    write_container(tmp_path / "c", {"name": "t", "n": 3, "d": 2},
                    GOOD_EDGES, GOOD_LABELS, GOOD_FEATS)
    with pytest.raises(InputError, match="num_classes"):
        load_dataset(str(tmp_path / "c"))
    write_container(tmp_path / "c2", {**GOOD_META, "n": 0}, GOOD_EDGES,
                    GOOD_LABELS, GOOD_FEATS)
    with pytest.raises(InputError, match="positive"):
        load_dataset(str(tmp_path / "c2"))
    bad = tmp_path / "c3"
    write_container(bad, GOOD_META, GOOD_EDGES, GOOD_LABELS, GOOD_FEATS)
    (bad / "meta.json").write_text("{not json")
    with pytest.raises(InputError, match="JSON"):
        load_dataset(str(bad))
    # JSON booleans are ints to Python; a count must still be a real integer
    write_container(tmp_path / "c4", {**GOOD_META, "num_classes": True},
                    GOOD_EDGES, GOOD_LABELS, GOOD_FEATS)
    with pytest.raises(InputError, match="positive integer, got True") as exc:
        load_dataset(str(tmp_path / "c4"))
    assert exc.value.path.endswith("meta.json")
    write_container(tmp_path / "c5", 5, GOOD_EDGES, GOOD_LABELS, GOOD_FEATS)
    with pytest.raises(InputError, match="meta.json must hold a JSON object") as exc:
        load_dataset(str(tmp_path / "c5"))
    assert exc.value.path.endswith("meta.json")


def test_labels_count_mismatch_names_both_counts(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, "0\n1\n", GOOD_FEATS)
    with pytest.raises(InputError, match="expected 3 labels, found 2"):
        load_dataset(str(tmp_path / "c"))


def test_label_out_of_range_reports_line(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, "0\n1\n5\n",
                    GOOD_FEATS)
    with pytest.raises(InputError) as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 3
    assert "5" in str(exc.value)


def test_malformed_edge_line_reports_line(tmp_path):
    write_container(tmp_path / "c", GOOD_META, "0\t1\n1 2\n", GOOD_LABELS,
                    GOOD_FEATS)
    with pytest.raises(InputError) as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 2


def test_blank_lines_are_skipped_but_counted(tmp_path):
    write_container(tmp_path / "c", GOOD_META, "\n0\t1\n\n1\t2\n",
                    "0\n\n1\n1\n\n", features_text="\n0\t1\n2\t3\n\n4\t5\n")
    ds = load_dataset(str(tmp_path / "c"))
    assert ds.graph.num_edges == 2
    assert ds.y.tolist() == [0, 1, 1]
    assert ds.x.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, "0\n\n1\n7\n")
    with pytest.raises(InputError) as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 4


def test_container_text_format(tmp_path):
    ds = Dataset(name="t", graph=build_graph([(1, 2), (0, 1)], 3),
                 x=np.zeros((3, 2)), y=np.array([0, 1, 0]), num_classes=2)
    save_dataset(ds, str(tmp_path / "c"))
    assert (tmp_path / "c" / "edges.tsv").read_bytes() == b"0\t1\n1\t2\n"
    assert (tmp_path / "c" / "labels.tsv").read_bytes() == b"0\n1\n0\n"


def test_edge_order_enforced(tmp_path):
    write_container(tmp_path / "c", GOOD_META, "1\t0\n", GOOD_LABELS,
                    GOOD_FEATS)
    with pytest.raises(InputError, match="u < v"):
        load_dataset(str(tmp_path / "c"))


def test_features_bin_wrong_length_names_expected_bytes(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    GOOD_FEATS[:-4])
    with pytest.raises(InputError, match="24"):  # 3 * 2 * 4 bytes
        load_dataset(str(tmp_path / "c"))


def test_features_tsv_wrong_width(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    features_text="0.5\n2.5\t3.5\n4.5\t5.5\n")
    with pytest.raises(InputError) as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 1


def test_features_tsv_is_tab_separated(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    features_text="0.5\t1.5\n2.5 3.5\n4.5\t5.5\n")
    with pytest.raises(InputError, match="tab-separated") as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 2


def test_features_bin_non_finite_names_row_and_column(tmp_path):
    feats = np.arange(6, dtype="<f4")
    feats[3] = np.inf
    feats[5] = np.nan
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    feats.tobytes())
    with pytest.raises(InputError, match="row 1, column 1") as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.path.endswith("features.bin")


def test_features_tsv_non_finite_names_line(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    features_text="0.5\t1.5\n2.5\tnan\n-inf\t5.5\n")
    with pytest.raises(InputError, match="non-finite") as exc:
        load_dataset(str(tmp_path / "c"))
    assert exc.value.line == 2
    assert exc.value.path.endswith("features.tsv")


def test_no_features_file(tmp_path):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS)
    with pytest.raises(InputError, match="features"):
        load_dataset(str(tmp_path / "c"))


def small_report():
    ds = tiny_dataset()
    a = normalized_adjacency(ds.graph)
    result = run_grid(a, ds.x, ds.y, num_classes=3, base_seed=3, models=("gcn", "logreg"),
                      feature_modes=("original",))
    from gcndiag import homophily_report
    hom = homophily_report(ds.graph, ds.y, 3)
    return build_report(ds.fingerprint(), {"seed": 3}, hom, result)


def test_report_round_trip(tmp_path):
    report = small_report()
    path = str(tmp_path / "r.json")
    save_report(report, path)
    assert load_report(path) == report


def test_stable_form_drops_only_volatile():
    report = small_report()
    stable = stable_form(report)
    assert "volatile" not in stable
    assert set(report) - set(stable) == {"volatile"}
    assert "created_at" in report["volatile"]


def test_report_decisions_metadata_present():
    report = small_report()
    assert report["schema_version"] == 1
    assert report["decisions"]["validation_fraction"] == 0.2
    assert "tie" in " ".join(report["decisions"].keys()) or any(
        "tie" in k for k in report["decisions"])


def test_report_retention_table():
    def cell(model, pct, mode, macro):
        scores = None if macro is None else ModelScores(
            per_class_f1=np.array([macro, macro]), macro_f1=macro,
            confusion=np.eye(2, dtype=np.int64))
        return CellResult(model=model, masking_rate=pct / 100,
                          feature_mode=mode, scores=scores,
                          error="" if scores else "RuntimeError: boom")

    cells = [cell("gcn", 0, "original", 0.8), cell("gcn", 0, "random", 0.6),
             cell("gcn", 90, "original", 0.5),
             cell("logreg", 0, "original", 0.0),
             cell("logreg", 0, "random", 0.3),
             cell("svm", 50, "original", 0.7), cell("svm", 50, "random", None)]
    result = ExperimentResult(base_seed=0, num_classes=2, cells={
        f"{c.model}:{round(c.masking_rate * 100)}:{c.feature_mode}": c
        for c in cells})
    report = build_report("fp", {}, {}, result)
    assert report["retention"] == {"gcn": {"0": pytest.approx(75.0), "90": None},
                                   "logreg": {"0": None}, "svm": {"50": None}}
    json.dumps(report, allow_nan=False)


def test_jsonable_handles_awkward_values():
    out = jsonable({"a": (1, 2), "b": np.float64("nan"), "c": np.int64(3),
                    "d": np.array([1.5, np.inf]), "e": True})
    assert out == {"a": [1, 2], "b": None, "c": 3, "d": [1.5, None], "e": True}


def test_save_report_bad_path():
    with pytest.raises(InputError):
        save_report({"x": 1}, "/no/such/dir/r.json")


# --- command line ---

def run_cli(*argv):
    return main(list(argv))


def make_container(tmp_path, **kw):
    out = str(tmp_path / "ds")
    args = dict(n=80, classes=3, homophily=1.0, degree=4, dim=4, signal=2.0,
                seed=1)
    args.update(kw)
    rc = run_cli("synth", "--n", str(args["n"]), "--classes",
                 str(args["classes"]), "--homophily", str(args["homophily"]),
                 "--degree", str(args["degree"]), "--dim", str(args["dim"]),
                 "--signal", str(args["signal"]), "--seed", str(args["seed"]),
                 "--out", out)
    assert rc == 0
    return out


def test_cli_synth_then_analyze_full_homophily(tmp_path, capsys):
    ds_dir = make_container(tmp_path, homophily=1.0)
    out = str(tmp_path / "analysis.json")
    assert run_cli("analyze", ds_dir, "--out", out) == 0
    payload = load_report(out)
    assert payload["homophily"]["overall"] == 1.0
    assert payload["directed_edges"] == 2 * payload["undirected_edges"]


def test_cli_run_is_deterministic(tmp_path):
    ds_dir = make_container(tmp_path, homophily=0.85)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    base = ["run", ds_dir, "--seed", "5", "--models", "gcn,lr",
            "--features", "original", "--epochs", "30"]
    assert run_cli(*base, "--out", out1) == 0
    assert run_cli(*base, "--out", out2) == 0
    r1, r2 = load_report(out1), load_report(out2)
    assert json.dumps(stable_form(r1), sort_keys=True) == json.dumps(
        stable_form(r2), sort_keys=True)
    assert r1["grid"]["cells"]["gcn:0:original"]["scores"]["macro_f1"] > 0.5


def test_cli_run_then_quadrant(tmp_path):
    ds_dir = make_container(tmp_path, homophily=0.85, n=120)
    results = str(tmp_path / "results.json")
    assert run_cli("run", ds_dir, "--seed", "2", "--models", "gcn,lr",
                   "--features", "original", "--epochs", "40",
                   "--out", results) == 0
    quad_out = str(tmp_path / "quad.json")
    assert run_cli("quadrant", results, "--out", quad_out) == 0
    payload = load_report(quad_out)
    for name in ("LowH-StrongF", "HighH-StrongF", "LowH-WeakF", "HighH-WeakF"):
        assert name in payload
    assert len(payload["per_class"]) + len(payload["flagged_classes"]) == 3
    report = load_report(results)
    assert report["quadrants"] is not None


def test_cli_model_alias_lr(tmp_path):
    ds_dir = make_container(tmp_path, homophily=0.85)
    out = str(tmp_path / "r.json")
    assert run_cli("run", ds_dir, "--models", "lr", "--features", "original",
                   "--masking", "0", "--out", out) == 0
    report = load_report(out)
    assert list(report["grid"]["cells"]) == ["logreg:0:original"]


def test_cli_gradcheck_ok(capsys):
    assert run_cli("gradcheck", "--instances", "5") == 0
    assert "passed" in capsys.readouterr().out


def test_cli_gradcheck_failure_names_the_check_once(monkeypatch, capsys):
    message = "gradient check failed: max relative error 1.000e-03 > 1e-05"

    def failing(**kwargs):
        raise AssertionError(message)  # the text the real audit raises

    monkeypatch.setattr(gcndiag.cli, "gradient_check", failing)
    capsys.readouterr()
    assert run_cli("gradcheck") == 1
    assert capsys.readouterr() == ("", message + "\n")


def test_cli_errors_exit_codes(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "missing")) == 1
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", "x", "--definitely-not-a-flag")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli("no-such-command")
    ds_dir = make_container(tmp_path)
    assert run_cli("run", ds_dir, "--models", "transformer") == 1
    assert run_cli("run", ds_dir, "--masking", "120") == 1


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A small container and a run report over it, shared by the CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    ds_dir = make_container(tmp_path, n=60, classes=2, homophily=0.9,
                            degree=4, signal=3.0)
    results = str(tmp_path / "results.json")
    assert run_cli("run", ds_dir, "--models", "gcn,lr", "--masking", "0",
                   "--features", "original", "--epochs", "2",
                   "--out", results) == 0
    return ds_dir, results


@pytest.mark.parametrize("masking, message", [
    ("0,0.4", "'0.4' is not a whole number"),
    ("50.4", "'50.4' is not a whole number"),
    ("50,50", "masking percent 50 given twice"),
    ("0,90,90.0", "masking percent 90 given twice"),
    ("120", "masking rate must be in [0, 1), got 1.2"),
])
def test_cli_masking_rejects_fractional_and_repeated_percents(
        capsys, cli_inputs, masking, message):
    capsys.readouterr()
    assert run_cli("run", cli_inputs[0], "--masking", masking) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.count("error:") == 1
    assert captured.out == ""


@pytest.mark.parametrize("models, model", [("gcn,gcn", "gcn"),
                                           ("lr,logreg", "logreg")])
def test_cli_run_rejects_a_repeated_model(capsys, cli_inputs, models, model):
    capsys.readouterr()
    assert run_cli("run", cli_inputs[0], "--models", models) == 1
    assert capsys.readouterr() == ("", f"error: model {model!r} given twice\n")


def test_cli_run_quadrants_equal_quadrant_output(tmp_path, cli_inputs):
    out = str(tmp_path / "quad.json")
    assert run_cli("quadrant", cli_inputs[1], "--out", out) == 0
    assert load_report(cli_inputs[1])["quadrants"] == load_report(out)


def test_cli_run_says_why_its_quadrant_section_is_null(tmp_path, capsys,
                                                      cli_inputs):
    out = str(tmp_path / "random.json")
    capsys.readouterr()
    assert run_cli("run", cli_inputs[0], "--models", "gcn,lr", "--masking", "0",
                   "--features", "random", "--epochs", "2", "--out", out) == 0
    why = "no cell 'logreg:0:original' in this run"
    assert f"quadrants skipped: {why}\n" in capsys.readouterr().err
    report = load_report(out)
    assert report["quadrants"] is None and report["quadrants_skipped"] == why
    built = load_report(cli_inputs[1])
    assert built["quadrants"] is not None and built["quadrants_skipped"] is None


@pytest.mark.parametrize("command", ["analyze", "run", "quadrant", "tune",
                                     "synth"])
def test_cli_out_under_missing_directory_is_an_error(
        tmp_path, capsys, monkeypatch, cli_inputs, command):
    ds_dir, results = cli_inputs
    if command in ("run", "tune"):  # a long run checks its --out first
        for name in ("load_dataset", "train_gcn"):
            monkeypatch.setattr(gcndiag.cli, name, lambda *a, name=name, **k:
                                pytest.fail(f"{name} ran before --out was checked"))
    out = str(tmp_path / "missing" / "out")
    argv = {
        "analyze": ["analyze", ds_dir],
        "run": ["run", ds_dir, "--models", "lr", "--masking", "0",
                "--features", "original"],
        "quadrant": ["quadrant", results],
        "tune": ["tune", ds_dir, "--epochs", "1"],
        "synth": ["synth", "--n", "20", "--classes", "2", "--homophily",
                  "0.9", "--degree", "2", "--dim", "2", "--signal", "1"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err
    assert not os.path.exists(tmp_path / "missing")


@pytest.mark.parametrize("name, line, text", [
    ("edges.tsv", 5, "3\tx"),
    ("labels.tsv", 7, "abc"),
])
def test_cli_error_names_file_and_line(tmp_path, capsys, name, line, text):
    ds_dir = make_container(tmp_path)
    path = os.path.join(ds_dir, name)
    with open(path) as fh:
        rows = fh.read().splitlines()
    rows[line - 1] = text
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run_cli("analyze", ds_dir) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_cli_error_without_a_line_names_the_path(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    capsys.readouterr()
    assert run_cli("analyze", missing) == 1
    assert capsys.readouterr().err == (
        f"error: {missing}: dataset directory not found\n")


@pytest.mark.parametrize("name", ["meta.json", "edges.tsv", "labels.tsv"])
def test_cli_error_names_a_missing_file_once(tmp_path, capsys, name):
    ds_dir = make_container(tmp_path)
    path = os.path.join(ds_dir, name)
    os.remove(path)
    capsys.readouterr()
    assert run_cli("analyze", ds_dir) == 1
    assert capsys.readouterr().err == f"error: {path}: not found\n"


def test_cli_error_names_an_unwritable_report_once(tmp_path, capsys,
                                                   cli_inputs):
    out = str(tmp_path / "missing" / "out.json")
    capsys.readouterr()
    assert run_cli("analyze", cli_inputs[0], "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {out}: cannot write report: {os.strerror(errno.ENOENT)}\n")


@pytest.mark.parametrize("command, flags, field", [
    ("run", ["--epochs", "0"], "max_epochs"),
    ("run", ["--hidden", "0"], "hidden"),
    ("run", ["--learning-rate", "-1"], "learning_rate"),
    ("run", ["--weight-decay", "-0.5"], "weight_decay"),
    ("tune", ["--epochs", "0"], "max_epochs"),
])
def test_cli_rejects_invalid_gcn_settings(capsys, cli_inputs, command, flags,
                                          field):
    grid = ["--models", "gcn", "--masking", "0", "--features", "original"]
    capsys.readouterr()
    assert run_cli(command, cli_inputs[0], *(grid if command == "run" else []),
                   *flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: GCN {field} must be ")
    assert captured.out == ""


SYNTH_FLAGS = ["--n", "20", "--classes", "2", "--homophily", "0.9",
               "--degree", "2", "--dim", "2", "--signal", "1"]
GCN_CELL = ["--models", "gcn", "--masking", "0", "--features", "original"]


@pytest.mark.parametrize("command, flags, message", [
    ("synth", ["--classes", "0"], "synthetic num_classes must be >= 1, got 0"),
    ("synth", ["--classes", "-1"], "synthetic num_classes must be >= 1, got -1"),
    ("synth", ["--seed", "-1"], "synthetic seed must be >= 0, got -1"),
    ("synth", ["--degree", "inf"],
     "synthetic avg_degree must be finite and > 0, got inf"),
    ("synth", ["--degree", "nan"],
     "synthetic avg_degree must be finite and > 0, got nan"),
    ("synth", ["--signal", "nan"],
     "synthetic signal must be finite and >= 0, got nan"),
    ("synth", ["--signal", "inf"],
     "synthetic signal must be finite and >= 0, got inf"),
    ("synth", ["--dim", "0"], "synthetic dim must be >= 1, got 0"),
    ("run", ["--learning-rate", "inf"],
     "GCN learning_rate must be finite and > 0, got inf"),
    ("run", ["--learning-rate", "nan"],
     "GCN learning_rate must be finite and > 0, got nan"),
    ("run", ["--weight-decay", "inf"],
     "GCN weight_decay must be finite and >= 0, got inf"),
    ("gradcheck", ["--instances", "0"],
     "gradient check num_instances must be >= 1, got 0"),
    ("gradcheck", ["--instances", "-3"],
     "gradient check num_instances must be >= 1, got -3"),
    ("gradcheck", ["--tolerance", "nan"],
     "gradient check tolerance must be finite and > 0, got nan"),
    ("gradcheck", ["--seed", "-1"], "gradient check seed must be >= 0, got -1"),
    ("quadrant", ["--homophily-threshold", "nan"],
     "quadrant homophily_threshold must be in [0, 1], got nan"),
    ("quadrant", ["--f1-threshold", "inf"],
     "quadrant f1_threshold must be in [0, 1], got inf"),
])
def test_cli_rejects_out_of_range_settings(tmp_path, capsys, cli_inputs,
                                           command, flags, message):
    ds_dir, results = cli_inputs
    out = str(tmp_path / "out")
    argv = {"synth": ["synth", *SYNTH_FLAGS, "--out", out],
            "run": ["run", ds_dir, *GCN_CELL, "--out", out],
            "gradcheck": ["gradcheck"],
            "quadrant": ["quadrant", results, "--out", out]}[command]
    capsys.readouterr()
    assert run_cli(*argv, *flags) == 1  # the last of a repeated flag wins
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_fails_a_diverging_gcn_cell(tmp_path, capsys, cli_inputs):
    out = str(tmp_path / "r.json")
    capsys.readouterr()
    assert run_cli("run", cli_inputs[0], *GCN_CELL, "--learning-rate", "1e300",
                   "--out", out) == 1
    cell = load_report(out)["grid"]["cells"]["gcn:0:original"]
    assert cell["scores"] is None
    assert re.fullmatch(r"FloatingPointError: GCN training loss is (nan|inf) "
                        r"at epoch \d+", cell["error"])
    err = capsys.readouterr().err
    assert f"cell gcn:0:original failed: {cell['error']}" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("case, message", [
    ("empty", "missing key grid"),
    ("list", "report must be a JSON object, got list"),
    ("no_scores", 'missing key grid.cells["gcn:0:original"].scores'),
    ("no_homophily", "missing key homophily"),
    ("text_f1", "malformed value at "
                'grid.cells["logreg:0:original"].scores.macro_f1: \'x\''),
    ("extra_key", 'unknown key grid.cells["logreg:0:original"].extra'),
    ("rate_null", "malformed value at "
                  'grid.cells["logreg:0:original"].masking_rate: None'),
    ("rate_nan", "malformed value at "
                 'grid.cells["logreg:0:original"].masking_rate: nan'),
    ("rate_huge", "malformed value at "
                  'grid.cells["logreg:0:original"].masking_rate: inf'),
    ("rate_above_one", "malformed value at "
                       'grid.cells["logreg:0:original"].masking_rate: 1.5'),
    ("per_class_text", "malformed value at homophily.per_class: 'abc'"),
    ("per_class_object", "malformed value at homophily.per_class: {'a': 1}"),
    ("per_class_short", "per-class arrays disagree on length: (1,), (2,), (2,)"),
    ("class_counts", 'grid.cells["gcn:0:original"].scores.per_class_f1 '
                     "has 3 entries, not grid.num_classes 2"),
    ("class_counts_two_rates", 'grid.cells["gcn:50:original"].scores.'
                               "per_class_f1 has 3 entries, not grid.num_classes 2"),
    ("confusion_rows", 'grid.cells["gcn:0:original"].scores.confusion is '
                       "(1, 2), not (2, 2)"),
    ("misfiled_cell", 'grid.cells["logreg:50:original"] describes the cell '
                      "logreg:0:original"),
    ("no_logreg", "no cell 'logreg:0:original' in this run"),
    ("no_cells", "no masking rates to average over"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_quadrant_names_what_a_report_lacks(tmp_path, capsys, cli_inputs,
                                                case, message):
    report = load_report(cli_inputs[1])
    cells = report["grid"]["cells"]
    raw = {"rate_nan": "NaN", "rate_huge": "1e400"}  # save_report writes null
    if case in ("class_counts_two_rates", "misfiled_cell"):
        for model in ("gcn", "logreg"):  # a second rate, so rows are averaged
            cells[f"{model}:50:original"] = {
                **copy.deepcopy(cells[f"{model}:0:original"]),
                "masking_rate": 0.5}
    if case == "no_scores":
        del cells["gcn:0:original"]["scores"]
    elif case == "no_homophily":
        del report["homophily"]
    elif case == "text_f1":
        cells["logreg:0:original"]["scores"]["macro_f1"] = "x"
    elif case == "extra_key":
        cells["logreg:0:original"]["extra"] = 1
    elif case.startswith("rate_"):
        cells["logreg:0:original"]["masking_rate"] = {
            "rate_null": None, "rate_above_one": 1.5}.get(case, case)
    elif case.startswith("per_class_"):
        report["homophily"]["per_class"] = {
            "per_class_text": "abc", "per_class_object": {"a": 1},
            "per_class_short": [0.5]}[case]
    elif case == "class_counts":
        cells["gcn:0:original"]["scores"]["per_class_f1"].append(0.5)
    elif case == "class_counts_two_rates":
        for model in ("gcn", "logreg"):
            cells[f"{model}:50:original"]["scores"]["per_class_f1"].append(0.5)
    elif case == "confusion_rows":
        del cells["gcn:0:original"]["scores"]["confusion"][-1]
    elif case == "misfiled_cell":
        cells["logreg:50:original"]["masking_rate"] = 0.0
    elif case == "no_logreg":
        del cells["logreg:0:original"]
    elif case == "no_cells":
        cells.clear()
    path = str(tmp_path / "bad.json")
    save_report({"empty": {}, "list": [report]}.get(case, report), path)
    if case in raw:
        with open(path) as fh:
            text = fh.read().replace(f'"{case}"', raw[case])
        with open(path, "w") as fh:
            fh.write(text)
    capsys.readouterr()
    assert run_cli("quadrant", path) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_tune_search_space_constants():
    assert GCN_HIDDEN_GRID == (32, 64, 128)
    assert GCN_DROPOUT_GRID == (0.2, 0.3, 0.5)
    assert GCN_LR_GRID == (0.001, 0.01)
    assert GCN_WD_GRID == (5e-4, 1e-4, 1e-5, 0.0)


def test_cli_tune_quick(tmp_path):
    ds_dir = make_container(tmp_path, n=60, classes=2, homophily=0.9,
                            degree=4, signal=3.0)
    out = str(tmp_path / "tune.json")
    assert run_cli("tune", ds_dir, "--epochs", "2", "--out", out) == 0
    payload = load_report(out)
    assert payload["search_spaces"]["gcn"]["hidden"] == [32, 64, 128]
    assert len(payload["gcn_grid"]) == 3 * 3 * 2 * 4
    assert payload["best"]["gcn"]["hidden"] in (32, 64, 128)
    assert payload["best"]["logreg_c"] in (0.001, 0.01, 0.1, 1.0, 10.0,
                                           100.0, 1000.0)
    assert set(payload["unconverged"]) == {"logreg", "svm"}
    # each search point reports its early-stopping trace like a run cell
    for row in payload["gcn_grid"]:
        assert 1 <= row["best_epoch"] <= row["stopped_epoch"] <= 2
        assert row["warnings"] == []
    assert payload["best"]["gcn"] in payload["gcn_grid"]


def test_cli_tune_reports_unconverged_fits(tmp_path, monkeypatch):
    import gcndiag.baselines as baselines
    ds_dir = make_container(tmp_path, n=60, classes=2, homophily=0.9,
                            degree=4, signal=3.0)
    out = str(tmp_path / "tune.json")
    monkeypatch.setattr(baselines, "LBFGS_MAX_ITER", 2)
    assert run_cli("tune", ds_dir, "--epochs", "2", "--out", out) == 0
    payload = load_report(out)
    assert payload["unconverged"] == {"logreg": list(baselines.LOGREG_C_GRID),
                                      "svm": list(baselines.SVM_C_GRID)}


def test_cli_defaults_are_read_from_their_owners():
    from gcndiag import GcnConfig
    from gcndiag.protocol import FEATURE_MODES, MASKING_RATES, MODELS
    run = gcndiag.cli.build_parser().parse_args(["run", "ds"])
    tune = gcndiag.cli.build_parser().parse_args(["tune", "ds"])
    gcn = GcnConfig()
    assert (run.hidden, run.dropout, run.learning_rate, run.weight_decay,
            run.epochs, tune.epochs) == (gcn.hidden, gcn.dropout_rate,
                                         gcn.learning_rate, gcn.weight_decay,
                                         gcn.max_epochs, gcn.max_epochs)
    assert gcndiag.cli._names(run.models) == MODELS
    assert gcndiag.cli._parse_masking(run.masking) == MASKING_RATES
    assert tuple(run.features.split(",")) == FEATURE_MODES


@pytest.mark.parametrize("name, text, line", [
    ("labels.tsv", b"0\n1\n\xff\n", 3),
    ("labels.tsv", b"0\r\n\r\n1\r\x80\n", 4),  # lines counted as text mode does
    ("edges.tsv", b"0\t1\n1\t2\xfe\n", 2),
])
def test_non_utf8_container_file_names_file_and_line(tmp_path, capsys, name,
                                                     text, line):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    GOOD_FEATS)
    path = str(tmp_path / "c" / name)
    with open(path, "wb") as fh:
        fh.write(text)
    capsys.readouterr()
    assert run_cli("analyze", str(tmp_path / "c")) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: not valid UTF-8\n"


def test_non_utf8_meta_json_names_the_file(tmp_path, capsys):
    write_container(tmp_path / "c", GOOD_META, GOOD_EDGES, GOOD_LABELS,
                    GOOD_FEATS)
    path = str(tmp_path / "c" / "meta.json")
    with open(path, "wb") as fh:
        fh.write(b'{"name": "\xff", "n": 3, "d": 2, "num_classes": 2}')
    capsys.readouterr()
    assert run_cli("analyze", str(tmp_path / "c")) == 1
    assert capsys.readouterr().err == f"error: {path}: not valid UTF-8\n"


def test_non_utf8_report_names_the_file(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    with open(path, "wb") as fh:
        fh.write(b'{"grid": "\xff"}')
    capsys.readouterr()
    assert run_cli("quadrant", path) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: report is not valid UTF-8\n")


@pytest.mark.parametrize("command", ["run", "tune"])
def test_cli_out_naming_a_directory_fails_before_loading(
        tmp_path, capsys, monkeypatch, cli_inputs, command):
    monkeypatch.setattr(gcndiag.cli, "load_dataset", lambda *a, **k:
                        pytest.fail("load_dataset ran before --out was checked"))
    out = str(tmp_path)
    capsys.readouterr()
    assert run_cli(command, cli_inputs[0], "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {out}: cannot write report: {os.strerror(errno.EISDIR)}\n")
