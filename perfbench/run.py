"""End-to-end and per-layer benchmark for gcndiag.

Run from the root of a checkout:

    python3 perfbench/run.py --workload demo-grid --seed 0 --seconds 55 --trace 0

The harness builds the workload's container from ``--seed`` with
``gcndiag synth`` from the checkout's own ``src``, then times the CLI end to
end in fresh child processes (``python -m gcndiag.cli`` with ``src`` first on
PYTHONPATH). It alternates a set-up probe and the CLI until ``--seconds`` is
used up, at least three times each, and reports medians. It checks every
output: the container fingerprint, cell errors, exit codes, quality floors,
and that each repetition's report equals the first one's.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also runs one
traced repetition (perfbench/probe.py patches the module attributes that
callers look up and records spans around them) plus a dropout probe, and
prints the per-layer metrics. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and every repetition.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# Left unset for every child: the executor's worker count and BLAS threading
# are themselves under study, so the program's defaults are what is measured.
THREAD_VARS = ("DIAGNOSE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

MIN_REPS = 3  # the median of three shrugs off one disturbed repetition
DROPOUT_HIDDEN = 64  # GcnConfig's default hidden width, used by `run`
DROPOUT_SECONDS = 2.0
DEADLINE_S = 170.0  # every child is killed past this point of the run

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "f1_gcn": "f1",
    "f1_logreg": "f1", "f1_svm": "f1", "failed_frac": "frac",
    "cli.import_s": "s",
    "dataset_io.load_s": "s", "dataset_io.bytes": "bytes",
    "graph.normalize_s": "s", "graph.spmm_calls": "count", "graph.spmm_s": "s",
    "graph.spmm_ms_per_call": "ms", "graph.spmm_gflop": "GFLOP",
    "graph.spmm_gb_computed": "GB",
    "homophily.report_s": "s",
    "protocol.split_s": "s", "protocol.grid_s": "s", "protocol.cells": "count",
    "protocol.cell_s_p50": "s", "protocol.cell_s_max": "s",
    "protocol.pool_util": "frac",
    "gcn.trainings": "count", "gcn.epochs": "count",
    "gcn.wasted_epoch_frac": "frac", "gcn.train_s": "s", "gcn.epoch_ms": "ms",
    "gcn.step_s": "s", "gcn.step_self_s": "s", "gcn.eval_s": "s",
    "gcn.eval_self_s": "s", "gcn.dropout_ms": "ms",
    "baselines.logreg_s": "s", "baselines.logreg_fits": "count",
    "baselines.logreg_evals": "count", "baselines.svm_s": "s",
    "baselines.svm_fits": "count", "baselines.svm_fit_ms": "ms",
    "trace.overhead_s": "s",
}

CONTAINERS = {
    # README demo container.
    "demo": {"n": 2000, "classes": 5, "homophily": 0.9, "degree": 10,
             "dim": 32, "signal": 1.5},
}


@dataclass(frozen=True)
class Workload:
    container: str  # key into CONTAINERS
    command: tuple  # subcommand and flags; container, --seed, --out are added
    f1_floor: float  # f1_gcn below this means the outputs are wrong


# Sized so that a 55-s run holds several repetitions on 2 cores (6 s for
# demo-grid, 9-12 s for demo-tune); the full-size jobs (18 cells; 72 trainings
# of up to 200 epochs) take 15-60 s each. An Amazon-Computers-scale workload
# (n=13752, degree 36, d=767, one 8-epoch GCN cell) is left out: its epochs
# stream about 100 MB of memory, and on a shared host the run-to-run spread of
# its wall time reached 20-37% of the median, past the 25% bound.
WORKLOADS = {
    # 6 cells where the SVM and logreg baselines and the thread pool dominate.
    "demo-grid": Workload("demo", ("run", "--features", "original",
                                   "--masking", "0,90"), 0.6),
    # 72 short GCN trainings on the small graph: per-call spmm overhead
    # dominates and the thread pool is bypassed.
    "demo-tune": Workload("demo", ("tune", "--epochs", "4"), 0.8),
}


class Runner:
    """Starts children one at a time and kills any that outlive the deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.logs = 0

    def run(self, args):
        """Returns (exit code, wall seconds, peak RSS in MB, stdout text)."""
        self.logs += 1
        out_path = os.path.join(self.work, f"child{self.logs}.out")
        err_path = os.path.join(self.work, f"child{self.logs}.err")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0, ""
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            text = fh.read()
        if proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            print(f"child exited {proc.returncode}: {' '.join(args[:4])}\n{tail}",
                  file=sys.stderr)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def make_container(runner, name, seed):
    """Generate the container with the tree's own `gcndiag synth`; returns its
    synth summary plus n, edges and on-disk size. Not part of any metric."""
    spec = CONTAINERS[name]
    path = os.path.join(runner.work, "container")
    args = ["-m", "gcndiag.cli", "synth", "--seed", str(seed), "--out", path]
    for key, value in spec.items():
        args += [f"--{key}", str(value)]
    code, _, _, text = runner.run(args)
    if code != 0:
        raise SystemExit(f"gcndiag synth failed with exit code {code}")
    info = json.loads(text)
    info["path"] = path
    info["bytes"] = sum(os.path.getsize(os.path.join(path, f))
                        for f in os.listdir(path))
    for f in os.listdir(path):  # write back now, not during a timed repetition
        fd = os.open(os.path.join(path, f), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return info


def check_container(name, seed, info):
    """Problems that show `synth` no longer builds the pinned workload."""
    spec = CONTAINERS[name]
    problems = []
    edges = int(round(spec["n"] * spec["degree"] / 2))
    if info["n"] != spec["n"] or info["undirected_edges"] != edges:
        problems.append(f"container has n={info['n']}, "
                        f"edges={info['undirected_edges']}; expected "
                        f"n={spec['n']}, edges={edges}")
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        pinned = json.load(fh).get(name, {}).get(str(seed))
    if pinned is not None and pinned != info["fingerprint"]:
        problems.append(f"container fingerprint {info['fingerprint']} differs "
                        f"from the pinned {pinned} for seed {seed}")
    return problems


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        def read(field):
            with open(os.path.join(base, index, field)) as fh:
                return fh.read().strip()
        if index.startswith("index") and read("type") != "Instruction":
            caches[f"L{read('level')}"] = read("size")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}",
        "caches": caches,
        "cli": "python -m gcndiag.cli with PYTHONPATH=src first",
        "unset_for_children": list(THREAD_VARS),
        "set_in_parent_and_removed": sorted(
            k for k in THREAD_VARS if k in os.environ),
    }


def working_set(container, spec, caches):
    """MB of the float64 arrays one GCN epoch streams, computed from shapes,
    against the last-level cache."""
    n, d = spec["n"], spec["dim"]
    nnz = n + 2 * container["undirected_edges"]
    mb = 1024.0 * 1024.0
    sizes = {"x_mb": n * d * 8 / mb,
             "adj_mb": (nnz * 16 + (n + 1) * 8) / mb,
             "hidden_mb": n * DROPOUT_HIDDEN * 8 / mb}
    sizes["total_mb"] = sum(sizes.values())
    llc = caches[max(caches)] if caches else ""
    if llc.endswith("K"):
        sizes["llc_mb"] = float(llc[:-1]) / 1024
        sizes["total_over_llc"] = sizes["total_mb"] / sizes["llc_mb"]
    return sizes


def stable_form(report):
    """The program's own comparison form (the report minus volatile keys)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from gcndiag.report import stable_form as program_stable_form
    return program_stable_form(report)


def grade(report, code, reference):
    """(operations attempted, operations failed, problem text) for one rep.

    An operation is a grid cell for `run` and one search point for `tune`.
    """
    if report is None:
        ops = operations(reference) if reference is not None else 1
        return ops, ops, f"no output, exit {code}"
    ops = operations(report)
    cells = report.get("grid", {}).get("cells", {})
    bad = sum(1 for cell in cells.values() if cell.get("error"))
    problem = f"{bad} cell(s) with an error" if bad else ""
    if code != 0 and not bad:
        bad, problem = ops, f"exit {code}"
    if reference is not None and stable_form(report) != stable_form(reference):
        bad, problem = ops, "report differs from the first repetition's"
    return ops, bad, problem


def operations(report):
    if "grid" in report:
        return len(report["grid"]["cells"])
    return len(report["gcn_grid"]) + 2  # GCN configurations + two baselines


def quality(report):
    """f1_gcn, f1_logreg, f1_svm; 0 for a model the workload does not run.

    `run`: mean test macro-F1 over the model's cells. `tune`: best GCN
    validation F1 and the selection score of each baseline's chosen C.
    """
    if "grid" in report:
        out = {}
        for model in ("gcn", "logreg", "svm"):
            f1 = [c["scores"]["macro_f1"] for c in report["grid"]["cells"].values()
                  if c["model"] == model and c["scores"] is not None]
            out[f"f1_{model}"] = statistics.fmean(f1) if f1 else 0.0
        return out
    best = report["best"]
    return {"f1_gcn": best["gcn"]["val_f1"],
            "f1_logreg": dict(report["logreg_grid"])[best["logreg_c"]],
            "f1_svm": dict(report["svm_grid"])[best["svm_c"]]}


def cli_args(workload, container, seed, out):
    sub, *flags = workload.command
    return [sub, container["path"], *flags, "--seed", str(seed), "--out", out]


def run_rep(runner, args, out):
    code, wall, rss, _ = runner.run(args)
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
    return {"exit": code, "wall_s": wall, "rss_mb": rss, "report": report}


def layer_metrics(trace, container, spec, setups, dropout_ms, overhead_s):
    spans = [dict(zip(("id", "name", "start", "end", "parent", "thread",
                       "attrs"), s)) for s in trace["spans"]]
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        named.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["dur"] for s in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    # spmm time under each step/eval span, for self time
    spmm_under = {}
    for s in named.get("graph.spmm", ()):
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in ("gcn.step",
                                                            "gcn.eval"):
            parent = by_id.get(parent["parent"])
        if parent is not None:
            spmm_under[parent["name"]] = spmm_under.get(parent["name"], 0.0) + s["dur"]

    nnz = spec["n"] + 2 * container["undirected_edges"]
    spmm = named.get("graph.spmm", ())
    cells = [s["dur"] for s in named.get("protocol.cell", ())]
    workers = len({s["thread"] for s in named.get("protocol.cell", ())})
    grid_s = total("protocol.run_grid")
    trainings = [s["attrs"] for s in named.get("gcn.train", ())]
    epochs = sum(t["stopped_epoch"] for t in trainings)
    wasted = sum(t["stopped_epoch"] - t["best_epoch"] for t in trainings)
    svm_fits = count("baselines.svm_fit")

    def med(key):
        return statistics.median(p[key] for p in setups)

    return {
        "cli.import_s": med("import_s"),
        "dataset_io.load_s": med("load_s"),
        "dataset_io.bytes": container["bytes"],
        "graph.normalize_s": med("normalize_s"),
        "graph.spmm_calls": len(spmm),
        "graph.spmm_s": total("graph.spmm"),
        "graph.spmm_ms_per_call": 1e3 * total("graph.spmm") / max(len(spmm), 1),
        "graph.spmm_gflop": sum(2 * nnz * s["attrs"]["cols"] for s in spmm) / 1e9,
        "graph.spmm_gb_computed": sum(s["attrs"]["bytes"] for s in spmm) / 1e9,
        "homophily.report_s": total("homophily.report"),
        "protocol.split_s": total("protocol.make_split"),
        "protocol.grid_s": grid_s,
        "protocol.cells": len(cells),
        "protocol.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "protocol.cell_s_max": max(cells, default=0.0),
        "protocol.pool_util": (sum(cells) / (workers * grid_s)
                               if cells and grid_s else 0.0),
        "gcn.trainings": len(trainings),
        "gcn.epochs": epochs,
        "gcn.wasted_epoch_frac": wasted / epochs if epochs else 0.0,
        "gcn.train_s": total("gcn.train"),
        "gcn.epoch_ms": 1e3 * total("gcn.train") / epochs if epochs else 0.0,
        "gcn.step_s": total("gcn.step"),
        "gcn.step_self_s": total("gcn.step") - spmm_under.get("gcn.step", 0.0),
        "gcn.eval_s": total("gcn.eval"),
        "gcn.eval_self_s": total("gcn.eval") - spmm_under.get("gcn.eval", 0.0),
        "gcn.dropout_ms": dropout_ms,
        "baselines.logreg_s": total("baselines.logreg"),
        "baselines.logreg_fits": count("baselines.logreg_fit"),
        "baselines.logreg_evals": trace["counts"].get("baselines.logreg_eval", 0),
        "baselines.svm_s": total("baselines.svm"),
        "baselines.svm_fits": svm_fits,
        "baselines.svm_fit_ms": (1e3 * total("baselines.svm_fit") / svm_fits
                                 if svm_fits else 0.0),
        "trace.overhead_s": overhead_s,
    }


def measure(name, workload, seed, seconds, trace):
    """Runs one benchmark; returns the result object printed as the last line."""
    spec = CONTAINERS[workload.container]
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(work, time.monotonic() + DEADLINE_S)
        container = make_container(runner, workload.container, seed)
        problems = check_container(workload.container, seed, container)
        env = environment()
        emit({"workload": name, "seed": seed, "container": {
            k: container[k] for k in ("fingerprint", "n", "undirected_edges",
                                      "bytes")},
            "working_set": working_set(container, spec, env["caches"])})
        emit({"environment": env})

        out = os.path.join(work, "report.json")
        args = cli_args(workload, container, seed, out)
        # Each round is one set-up probe and one CLI repetition, so that both
        # medians span the whole run: the shared host's speed drifts by tens
        # of percent over tens of seconds. An untimed probe comes first: it
        # compiles the bytecode and reads the container into the page cache.
        runner.run([PROBE, "setup", container["path"]])
        setups, reps = [], []
        begin = time.perf_counter()
        while time.monotonic() < runner.deadline and (
                len(reps) < MIN_REPS or (time.perf_counter() - begin)
                * (len(reps) + 1) / len(reps) <= seconds):
            code, _, _, text = runner.run([PROBE, "setup", container["path"]])
            if code != 0:
                raise SystemExit("setup probe failed")
            setups.append(json.loads(text))
            reps.append(run_rep(runner, ["-m", "gcndiag.cli"] + args, out))
        spans_path = os.path.join(work, "spans.json")
        traced = (run_rep(runner, [PROBE, "trace", spans_path, "--"] + args, out)
                  if trace else None)

        reference = next((r["report"] for r in reps if r["report"]), None)
        attempted = failed = 0
        for i, rep in enumerate(reps + ([traced] if traced else [])):
            ops, bad, problem = grade(rep["report"], rep["exit"],
                                      None if rep["report"] is reference
                                      else reference)
            attempted += ops
            failed += bad
            emit({"rep": i, "traced": rep is traced, "exit": rep["exit"],
                  "wall_s": rep["wall_s"], "rss_mb": rep["rss_mb"],
                  "operations": ops, "failed": bad, "problem": problem})
        f1 = (quality(reference) if reference is not None
              else {"f1_gcn": 0.0, "f1_logreg": 0.0, "f1_svm": 0.0})
        if reference is not None and reference.get(
                "dataset_fingerprint", container["fingerprint"]) \
                != container["fingerprint"]:
            problems.append("report fingerprint differs from the container's")
        if f1["f1_gcn"] < workload.f1_floor:
            problems.append(f"f1_gcn {f1['f1_gcn']:.4f} below the floor "
                            f"{workload.f1_floor}")

        walls = [r["wall_s"] for r in reps]
        if trace:
            metrics = traced_metrics(runner, container, spec, setups, spans_path,
                                     traced["wall_s"] - statistics.median(walls),
                                     problems)
            metrics.update(failed_frac=failed / attempted,
                           f1_logreg=f1["f1_logreg"], f1_svm=f1["f1_svm"])
        else:
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(p["setup_s"] for p in setups),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
                "f1_gcn": f1["f1_gcn"],
            }
        for problem in problems:
            emit({"problem": problem})
        return {"correct": failed == 0 and not problems,
                "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]}
                            for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still has a directory in it


def traced_metrics(runner, container, spec, setups, spans_path, overhead_s,
                   problems):
    """Per-layer metrics from the traced repetition's spans and the probes."""
    spans = {"spans": [], "counts": {}, "missing": []}
    if os.path.exists(spans_path):
        with open(spans_path) as fh:
            spans = json.load(fh)
    else:
        problems.append("the traced repetition wrote no spans")
    if spans["missing"]:
        emit({"trace_missing": spans["missing"]})
    code, _, _, text = runner.run([PROBE, "dropout", container["path"],
                                   str(DROPOUT_HIDDEN), str(DROPOUT_SECONDS)])
    if code != 0:
        problems.append("dropout probe failed")
    dropout_ms = json.loads(text)["dropout_ms"] if code == 0 else 0.0
    return layer_metrics(spans, container, spec, setups, dropout_ms, overhead_s)


def emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcndiag", "cli.py")):
        print(f"no gcndiag sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, args.trace)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
