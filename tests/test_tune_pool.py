"""`tune` trains its GCN search points one per core with OpenBLAS pinned to
one thread; the report, the BLAS thread count and the thread set come out as
a serial run leaves them."""

import os
import subprocess
import sys
import threading

import pytest

import gcndiag.cli as cli
from gcndiag import InputError, parallel
from gcndiag.cli import main
from gcndiag.parallel import one_blas_thread, openblas_thread_calls

BLAS = openblas_thread_calls()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="numpy's OpenBLAS thread symbols not found")


def blas_threads():
    return BLAS[1]() if BLAS is not None else None


@pytest.fixture
def container(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["synth", "--n", "60", "--classes", "2", "--homophily", "0.9",
                 "--degree", "4", "--dim", "4", "--signal", "3.0",
                 "--seed", "1", "--out", out]) == 0
    return out


def tune(container, out, monkeypatch, fail_at=None):
    """Run `tune --epochs 2`, recording which threads trained and the BLAS
    thread count each training saw; ``fail_at`` makes that point raise."""
    real = cli.train_gcn
    seen = []

    def recording(cfg, *args):
        seen.append((threading.get_ident(), blas_threads()))
        if (cfg.hidden, cfg.dropout_rate, cfg.learning_rate,
                cfg.weight_decay) == fail_at:
            raise InputError("injected failure")
        return real(cfg, *args)

    monkeypatch.setattr(cli, "train_gcn", recording)
    code = main(["tune", container, "--epochs", "2", "--seed", "3",
                 "--out", out])
    return code, seen


def test_pooled_report_equals_one_worker_report(container, tmp_path, monkeypatch):
    def report(name):
        with open(tmp_path / name, "rb") as fh:
            return fh.read()

    code, seen = tune(container, str(tmp_path / "pooled.json"), monkeypatch)
    assert code == 0 and len(seen) == 72
    workers = min(parallel.usable_cores(), 72) if BLAS is not None else 1
    assert len({ident for ident, _ in seen}) == workers

    # more workers than cores, switching threads as often as it can
    monkeypatch.setattr(parallel, "usable_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        code, seen = tune(container, str(tmp_path / "stressed.json"), monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0 and len(seen) == 72

    monkeypatch.setattr(parallel, "openblas_thread_calls", lambda: None)
    code, seen = tune(container, str(tmp_path / "serial.json"), monkeypatch)
    assert code == 0 and len(seen) == 72
    assert len({ident for ident, _ in seen}) == 1  # unpinned: one worker
    assert report("pooled.json") == report("serial.json")
    assert report("stressed.json") == report("serial.json")


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


@pytest.mark.parametrize("fail_at", [None, (64, 0.3, 0.01, 1e-4)])
def test_tune_restores_blas_threads_and_joins_workers(container, tmp_path,
                                                      monkeypatch, capsys,
                                                      blas_before, fail_at):
    threads_before = threading.active_count()
    code, seen = tune(container, str(tmp_path / "t.json"), monkeypatch, fail_at)
    assert code == (0 if fail_at is None else 1)
    if fail_at is not None:
        assert "injected failure" in capsys.readouterr().err
    assert threading.active_count() == threads_before
    if BLAS is not None:
        assert {count for _, count in seen} == {1}
        assert blas_threads() == blas_before


@needs_blas
def test_pin_is_a_no_op_without_the_symbols(monkeypatch):
    import ctypes
    before = blas_threads()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert openblas_thread_calls() is None
    with one_blas_thread() as pinned:
        assert pinned is False
        assert blas_threads() == before
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
