"""`tune` trains its baselines and GCN search points through one `fork_map`
call, one forked worker per usable core with OpenBLAS pinned to one thread;
the report and the BLAS thread count come out as a serial run leaves them,
and a failed item fails the whole search loudly, naming that item."""

import math
import multiprocessing
import os
import subprocess
import sys

import pytest

import gcndiag.baselines
import gcndiag.cli as cli
from gcndiag import InputError, parallel
from gcndiag.cli import main
from gcndiag.baselines import train_logreg
from gcndiag.gcn import train_gcn
from gcndiag.parallel import fork_map, openblas_thread_calls

BLAS = openblas_thread_calls()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="numpy's OpenBLAS thread symbols not found")
forks = pytest.mark.skipif(
    BLAS is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork and numpy's OpenBLAS thread symbols")


def blas_threads():
    return BLAS[1]() if BLAS is not None else None


@pytest.fixture
def container(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["synth", "--n", "60", "--classes", "2", "--homophily", "0.9",
                 "--degree", "4", "--dim", "4", "--signal", "3.0",
                 "--seed", "1", "--out", out]) == 0
    return out


def tune(container, out, monkeypatch, tmp_path, fail_at=None, die=False,
         cores=2):
    """Run `tune --epochs 2` on ``cores`` cores; returns its exit code, the
    ``(pid, BLAS threads)`` each GCN training saw and those the logreg fit
    saw. The pairs go through files, since forked workers cannot append to a
    list here. ``fail_at`` makes that point raise, or with ``die`` kill its
    worker."""
    seen, logreg_seen = tmp_path / "seen.txt", tmp_path / "logreg.txt"
    seen.write_text("")
    logreg_seen.write_text("")

    def record(path):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {blas_threads()}\n")

    def recording(cfg, *args):
        record(seen)
        if (cfg.hidden, cfg.dropout_rate, cfg.learning_rate,
                cfg.weight_decay) == fail_at:
            if die:
                os._exit(3)
            raise InputError("injected failure")
        return train_gcn(cfg, *args)

    def recording_logreg(*args, **kwargs):
        record(logreg_seen)
        return train_logreg(*args, **kwargs)

    monkeypatch.setattr(cli, "train_gcn", recording)
    monkeypatch.setattr(gcndiag.baselines, "train_logreg", recording_logreg)
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    code = main(["tune", container, "--epochs", "2", "--seed", "3",
                 "--out", out])

    return code, *([tuple(line.split()) for line in path.read_text().splitlines()]
                   for path in (seen, logreg_seen))


@forks
def test_pooled_report_equals_one_worker_report(container, tmp_path, monkeypatch):
    def report(name):
        with open(tmp_path / name, "rb") as fh:
            return fh.read()

    here = str(os.getpid())
    code, seen, logreg_seen = tune(container, str(tmp_path / "pooled.json"),
                                   monkeypatch, tmp_path)
    assert code == 0 and len(seen) == 72
    assert 1 <= len({pid for pid, _ in seen}) <= 2
    assert all(pid != here and blas == "1" for pid, blas in seen)
    # the logreg fit ran once, in a worker, on one BLAS thread
    [(pid, blas)] = logreg_seen
    assert pid != here and blas == "1"

    # without the pin symbols everything trains here, in order, on BLAS as is
    monkeypatch.setattr(parallel, "openblas_thread_calls", lambda: None)
    code, seen, logreg_seen = tune(container, str(tmp_path / "serial.json"),
                                   monkeypatch, tmp_path)
    assert code == 0 and seen == [(here, str(blas_threads()))] * 72
    assert logreg_seen == [(here, str(blas_threads()))]
    assert report("pooled.json") == report("serial.json")


@pytest.fixture
def blas_before():
    """Start from two BLAS threads, a count that a pin left in place would
    change (OpenBLAS caps it at the core count), and put the original back."""
    if BLAS is None:
        yield None
        return
    original = blas_threads()
    BLAS[0](2)
    yield blas_threads()
    BLAS[0](original)


@pytest.mark.parametrize("fail_at", [None, (32, 0.2, 0.001, 5e-4)])
def test_tune_restores_blas_threads_and_joins_workers(container, tmp_path,
                                                      monkeypatch, capsys,
                                                      blas_before, fail_at):
    out = tmp_path / "t.json"
    capsys.readouterr()
    code, seen, _ = tune(container, str(out), monkeypatch, tmp_path, fail_at)
    err = capsys.readouterr().err
    if fail_at is None:
        assert code == 0 and len(seen) == 72 and err == ""
    else:
        # the first point fails; the search stops without training the rest
        assert code == 1 and len(seen) < 72 and not out.exists()
        assert err == (f"error: tune point {fail_at} failed: "
                       "InputError: injected failure\n")
    assert multiprocessing.active_children() == []
    if BLAS is not None:
        if "fork" in multiprocessing.get_all_start_methods():
            assert {blas for _, blas in seen} == {"1"}
        assert blas_threads() == blas_before


@forks
def test_dead_worker_fails_tune_loudly(container, tmp_path, monkeypatch, capsys):
    point = (64, 0.3, 0.01, 1e-4)
    out = tmp_path / "t.json"
    capsys.readouterr()
    code, *_ = tune(container, str(out), monkeypatch, tmp_path, point, die=True)
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    # the first item left without a result need not be the one that killed
    # its worker, so the line names no point
    assert err.startswith("error: a tune worker died: BrokenProcessPool: ")
    assert "point" not in err and "(" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [2, 1])
def test_failing_baseline_fails_tune_naming_it(container, tmp_path,
                                               monkeypatch, capsys, cores):
    def failing_svm(*args, **kwargs):
        raise InputError("injected svm failure")

    monkeypatch.setattr(gcndiag.baselines, "train_svm", failing_svm)
    out = tmp_path / "t.json"
    capsys.readouterr()
    code, *_ = tune(container, str(out), monkeypatch, tmp_path, cores=cores)
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err == "error: tune svm failed: InputError: injected svm failure\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [2, 1])
def test_fork_map_yields_what_fn_raises(monkeypatch, cores):
    # the forked path and the serial path keep one contract: an item whose
    # function raises yields no result and its "Type: message", each item
    # comes with its finite wall time, and the other items still run
    def fn(item):
        if item == 1:
            raise ValueError("boom")
        return item

    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    outcomes = {i: rest for i, *rest in fork_map(fn, [0, 1, 2])}
    assert sorted(outcomes) == [0, 1, 2]
    assert [outcomes[i][:2] for i in (0, 1, 2)] == [
        [0, ""], [None, "ValueError: boom"], [2, ""]]
    assert all(math.isfinite(seconds) and seconds >= 0
               for _, _, seconds in outcomes.values())
    assert multiprocessing.active_children() == []


@needs_blas
def test_pin_is_a_no_op_without_the_symbols(monkeypatch):
    import ctypes
    before = blas_threads()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    assert openblas_thread_calls() is None
    seen = {i: (result, error) for i, result, error, _ in
            fork_map(lambda item: (os.getpid(), blas_threads()), [0, 1])}
    assert seen == {0: ((os.getpid(), before), ""), 1: ((os.getpid(), before), "")}
    assert blas_threads() == before


@needs_blas
def test_import_leaves_blas_threads_alone():
    # in a child, so the count is read before anything in gcndiag has run;
    # OpenBLAS caps its count at the core count, so use more than one core
    # for this test to tell a pin at import from the default
    code = "\n".join([
        "import ctypes, sys",
        "import numpy",
        "umath = (sys.modules.get('numpy._core._multiarray_umath')",
        "         or sys.modules['numpy.core._multiarray_umath'])",
        "lib = ctypes.CDLL(umath.__file__)",
        "get = next(getattr(lib, name) for name in (",
        "    'scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',",
        "    'openblas_get_num_threads') if hasattr(lib, name))",
        "before = get()",
        "import gcndiag, gcndiag.cli",
        "print(before, get())",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert after == before
