"""`run` forks its grid cells one per usable core; every cell runs on one
OpenBLAS thread, forked or not, only plain results cross back, and the report
matches a serial run."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gcndiag.baselines
import gcndiag.protocol as protocol
from conftest import BLAS, forks
from gcndiag import parallel, run_grid
from gcndiag.cli import main
from gcndiag.parallel import fork_map
from gcndiag.report import load_report, stable_form
from test_protocol import small_dataset

GRID = ["--masking", "0,90", "--features", "original", "--epochs", "5"]


@pytest.fixture
def container(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["synth", "--n", "80", "--classes", "2", "--homophily", "0.9",
                 "--degree", "4", "--dim", "4", "--signal", "3.0",
                 "--seed", "1", "--out", out]) == 0
    return out


@forks
def test_pooled_report_equals_one_worker_report(container, tmp_path,
                                                monkeypatch, capsys):
    # every logreg fit appends "pid blas-threads" to a file, so the test can
    # see where the cells ran and on how many BLAS threads
    seen = tmp_path / "seen.txt"
    real = gcndiag.baselines.train_logreg

    def recording(*args, **kwargs):
        with open(seen, "a") as fh:
            fh.write(f"{os.getpid()} {BLAS[1]()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(gcndiag.baselines, "train_logreg", recording)
    reports, where = {}, {}
    for cores in (2, 1):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        seen.write_text("")
        out = str(tmp_path / f"{cores}.json")
        capsys.readouterr()
        assert main(["run", container, *GRID, "--seed", "3", "--out", out]) == 0
        progress = capsys.readouterr().err.splitlines()
        reports[cores] = load_report(out)
        where[cores] = {tuple(line.split()) for line in seen.read_text().splitlines()}
        assert len(progress) == 6 and progress[-1].endswith("(6/6)")
        assert (sorted(reports[cores]["volatile"]["cell_seconds"])
                == sorted(reports[cores]["grid"]["cells"]))
    assert stable_form(reports[2]) == stable_form(reports[1])
    assert reports[1]["config"]["blas_threads"] == 1
    assert where[1] == {(str(os.getpid()), "1")}
    assert all(pid != str(os.getpid()) and blas == "1" for pid, blas in where[2])


def thread_dependent_product():
    """(x, g) whose ``x.T @ g`` rounds differently on one BLAS thread than on
    two, from a few probed shapes, or None when every probe agrees."""
    rng = np.random.default_rng(0)
    before = BLAS[1]()
    try:
        for n, d, c in ((400, 300, 10), (1000, 500, 10), (2000, 767, 10)):
            x, g = rng.standard_normal((n, d)), rng.standard_normal((n, c))
            BLAS[0](1)
            one = x.T @ g
            BLAS[0](2)
            if not np.array_equal(one, x.T @ g):
                return x, g
    finally:
        BLAS[0](before)
    return None


@forks
def test_an_item_alone_gets_the_bits_it_gets_beside_another(blas_before):
    # a lone item runs here and a pair in forked workers; the answer must not
    # depend on which, even where the thread count changes the rounding
    if parallel.usable_cores() < 2:
        pytest.skip("needs 2 cores to tell 1 BLAS thread from 2")
    found = thread_dependent_product()
    if found is None:
        pytest.skip("no probed x.T @ g differs between 1 and 2 BLAS threads")
    x, g = found

    def product(item):
        return x.T @ g

    [(_, alone, error, _)] = fork_map(product, [0])
    paired = [result for _, result, _, _ in fork_map(product, [0, 1])]
    assert error == "" and len(paired) == 2
    assert all(np.array_equal(alone, result) for result in paired)
    assert BLAS[1]() == blas_before


@forks
def test_local_cell_result_subclass_is_built_here(monkeypatch):
    # a tracer may swap CellResult for a class no worker could pickle back
    class LocalCellResult(protocol.CellResult):
        pass

    monkeypatch.setattr(protocol, "CellResult", LocalCellResult)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    a, x, y = small_dataset()
    result = run_grid(a, x, y, num_classes=3, base_seed=4, models=("logreg", "svm"),
                      masking_rates=(0.0,), feature_modes=("original",))
    assert all(type(c) is LocalCellResult and not c.error
               for c in result.cells.values())


@forks
def test_dead_worker_fails_its_cells_loudly(container, tmp_path, monkeypatch,
                                            capsys):
    def die(*args, **kwargs):
        os._exit(3)

    monkeypatch.setattr(gcndiag.baselines, "train_svm", die)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    out = str(tmp_path / "r.json")
    capsys.readouterr()
    assert main(["run", container, "--models", "lr,svm", *GRID,
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    cells = load_report(out)["grid"]["cells"]
    for key in ("svm:0:original", "svm:90:original"):
        assert cells[key]["scores"] is None
        assert f"cell {key} failed: BrokenProcessPool: " in err
    failed = {key for key, c in cells.items() if c["error"]}
    assert all(cells[key]["error"].startswith("BrokenProcessPool: ")
               and f"cell {key} failed: " in err for key in failed)


def test_import_loads_no_process_pool():
    # forked cells load the pool when a grid runs, not at import time, so
    # the CLI's start-up cost does not grow
    code = ("import sys, gcndiag.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
