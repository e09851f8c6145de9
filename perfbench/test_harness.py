"""Smoke checks for the benchmark harness on a tiny container (about 30 s).

    python3 -m pytest perfbench/test_harness.py -q
"""

import copy
import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY = {"n": 120, "classes": 3, "homophily": 0.8, "degree": 4, "dim": 8,
        "signal": 1.5}
TINY_RUN = ("run", "--features", "original", "--masking", "0", "--epochs", "5")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.CONTAINERS, "tiny", TINY)
    monkeypatch.setitem(run.WORKLOADS, "smoke", run.Workload("tiny", TINY_RUN, 0.0))
    # --dropout 1.0 is out of range, so every GCN cell records an error
    monkeypatch.setitem(run.WORKLOADS, "smoke-fail", run.Workload(
        "tiny", TINY_RUN + ("--dropout", "1.0"), 0.0))


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, trace, section):
    result = bench(capsys, "smoke", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * (run.MIN_REPS + trace)
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_failing_cell_is_counted(tiny, capsys):
    result = bench(capsys, "smoke-fail", 0)
    assert not result["correct"]
    assert result["attempted"] == 3 * run.MIN_REPS
    assert result["failed"] == run.MIN_REPS  # the GCN cell of each repetition


def test_report_drift_and_foreign_container_are_caught():
    cell = {"model": "gcn", "scores": {"macro_f1": 0.9}, "error": ""}
    report = {"grid": {"cells": {"gcn:0:original": cell}},
              "volatile": {"created_at": "t0"}}
    later = copy.deepcopy(report)
    later["volatile"]["created_at"] = "t1"
    assert run.grade(later, 0, report) == (1, 0, "")
    later["grid"]["cells"]["gcn:0:original"]["scores"]["macro_f1"] = 0.8
    assert run.grade(later, 0, report)[1] == 1

    info = {"n": 2000, "undirected_edges": 10000, "fingerprint": "0" * 32}
    assert any("fingerprint" in p for p in run.check_container("demo", 0, info))
