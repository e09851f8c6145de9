"""The CLI pins glibc's malloc thresholds; importing the package does not."""

import json
import os
import platform
import subprocess
import sys

import pytest

from gcndiag.cli import _pin_malloc_thresholds

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def run_python(code, timeout=120):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=timeout, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not GLIBC, reason="mallopt is a glibc interface")
def test_pin_succeeds_on_glibc():
    # in a child, so this test process keeps the allocator's defaults
    assert run_python("import json\n"
                      "from gcndiag.cli import _pin_malloc_thresholds\n"
                      "print(json.dumps(_pin_malloc_thresholds()))") is True


def test_pin_is_a_no_op_without_mallopt(monkeypatch):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert _pin_malloc_thresholds() is False


def test_only_main_calls_mallopt():
    code = "\n".join([
        "import ctypes, json, types",
        "import numpy, scipy.sparse",
        "calls = []",
        "def mallopt(param, value):",
        "    calls.append([param, value])",
        "    return 1",
        "ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)",
        "import gcndiag, gcndiag.cli",
        "after_import = list(calls)",
        "assert gcndiag.cli.main(['gradcheck', '--instances', '1']) == 0",
        "print(json.dumps([after_import, calls]))",
    ])
    after_import, after_main = run_python(code)
    assert after_import == []
    assert after_main == [[-3, 32 << 20], [-1, 64 << 20]]


@pytest.mark.skipif(not GLIBC, reason="mallopt is a glibc interface")
def test_pinned_training_stops_refaulting_its_temporaries():
    # One 20-epoch training at n=2000, d=32, h=64 under glibc's defaults,
    # then one after pinning, in the same child: measured about 25-30k minor
    # faults against about 1.4k.
    code = "\n".join([
        "import json, resource",
        "from gcndiag import GcnConfig, make_split, normalized_adjacency, train_gcn",
        "from gcndiag.cli import _pin_malloc_thresholds",
        "from gcndiag.synth import SyntheticSpec, generate_features, generate_graph",
        "spec = SyntheticSpec(n=2000, num_classes=5, target_homophily=0.9,",
        "                     avg_degree=10, dim=32, signal=1.5, seed=0)",
        "g, y = generate_graph(spec)",
        "x = generate_features(y, 32, 1.5, seed=1)",
        "a = normalized_adjacency(g)",
        "split = make_split(y, 0.0, 7, 5)",
        "cfg = GcnConfig(hidden=64, max_epochs=20, patience=20, seed=3)",
        "def faults():",
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "    assert train_gcn(cfg, a, x, y, split, 5).stopped_epoch == 20",
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before",
        "plain = faults()",
        "assert _pin_malloc_thresholds()",
        "print(json.dumps([plain, faults()]))",
    ])
    plain, pinned = run_python(code)
    assert pinned * 5 <= plain, (plain, pinned)
