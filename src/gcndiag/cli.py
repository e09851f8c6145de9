"""Command-line surface.

Subcommands: analyze (homophily report), run (model x masking x feature grid),
quadrant (re-threshold the quadrant section of a run report), synth (generate
a dataset container), gradcheck (finite-difference gradient audit), tune
(hyperparameter search).
Exit codes: 0 success, 1 structured failure, 2 usage error.
"""

import argparse
import math
import sys
from dataclasses import asdict, replace
from itertools import product

from .baselines import LOGREG_C_GRID, SVM_C_GRID, fit_baseline
from .dataset_io import Dataset, load_dataset, save_dataset
from .errors import GcnDiagError, InputError
from .gcn import (GRADCHECK_MIN_MAGNITUDE, GcnConfig, gradient_check,
                  train_gcn)
from .graph import normalized_adjacency, spmm
from .homophily import homophily_report
from . import parallel
from .protocol import (FEATURE_MODES, MASKING_RATES, MODELS, derive_seed,
                       make_split, masking_percent, run_grid)
from .quadrant import (F1_THRESHOLD, HOMOPHILY_THRESHOLD, _section_arrays,
                       assign_quadrants, averaged_class_metrics,
                       check_thresholds)
from .report import (build_report, check_report_dir, load_report,
                     save_report)
from .synth import SyntheticSpec, generate_features, generate_graph

# hyperparameter search spaces for `tune`
GCN_HIDDEN_GRID = (32, 64, 128)
GCN_DROPOUT_GRID = (0.2, 0.3, 0.5)
GCN_LR_GRID = (0.001, 0.01)
GCN_WD_GRID = (5e-4, 1e-4, 1e-5, 0.0)

# glibc mallopt parameters and the values the CLI starts from: the ceiling
# glibc's dynamic mmap threshold climbs to on 64-bit, and twice that for trim
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20

MODEL_ALIASES = {"lr": "logreg"}


def _pin_malloc_thresholds() -> bool:
    """Keep freed numpy temporaries in the heap instead of returning them.

    Under glibc's defaults each GCN epoch frees more than the learned trim
    threshold, so the heap top goes back to the kernel and the next epoch
    page-faults it in again. Fixed thresholds stop that, and any mallopt call
    turns glibc's dynamic adjustment off, so both are set. Called by ``main``
    only: importing the package leaves the allocator alone. Returns False,
    changing nothing, where mallopt is missing (macOS, Windows) or refuses
    (musl's stub returns 0).
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))


def _blas_threads():
    """The OpenBLAS thread count ``fork_map`` runs every item on: 1, or None
    where the thread symbols are missing and BLAS runs as the host set it."""
    return None if parallel.openblas_thread_calls() is None else 1


def _names(raw: str):
    """Comma list -> lowercase names; ``run_grid`` refuses an unknown or
    repeated one."""
    return tuple(tok.strip().lower() for tok in raw.split(","))


def _parse_masking(raw: str):
    """Comma list of percents -> masking rates, which ``run_grid`` checks."""
    rates = []
    for tok in raw.split(","):
        try:
            rates.append(float(tok) / 100.0)
        except ValueError:
            raise GcnDiagError(
                f"masking value {tok.strip()!r} is not a number") from None
    return tuple(rates)


def _progress(what, total):
    """(finished, seconds): ``finished(key, seconds, error)`` records each
    item's wall time in ``seconds`` by key and prints on stderr that it is
    done, as in ``cell svm:0:original done in 0.12 s (2/18)``."""
    seconds = {}

    def finished(key, took, error):
        seconds[key] = took
        print(f"{what} {key} {'failed' if error else 'done'} in {took:.2f} s "
              f"({len(seconds)}/{total})", file=sys.stderr)
    return finished, seconds


def cmd_analyze(args) -> int:
    check_report_dir(args.out)
    ds = load_dataset(args.dataset)
    save_report({
        "dataset": ds.name,
        "fingerprint": ds.fingerprint(),
        "n": ds.graph.n,
        "undirected_edges": ds.graph.num_edges,
        "directed_edges": 2 * ds.graph.num_edges,
        "homophily": homophily_report(ds.graph, ds.y, ds.num_classes),
    }, args.out)
    return 0


def cmd_run(args) -> int:
    check_report_dir(args.out)
    ds = load_dataset(args.dataset)
    a = normalized_adjacency(ds.graph)
    models = tuple(MODEL_ALIASES.get(m, m) for m in _names(args.models))
    masking = _parse_masking(args.masking)
    modes = _names(args.features)
    cfg = GcnConfig(hidden=args.hidden, dropout_rate=args.dropout,
                    learning_rate=args.learning_rate,
                    weight_decay=args.weight_decay, max_epochs=args.epochs,
                    seed=args.seed)
    finished, cell_seconds = _progress(
        "cell", len(models) * len(masking) * len(modes))
    result = run_grid(a, ds.x, ds.y, base_seed=args.seed, models=models,
                      masking_rates=masking, feature_modes=modes,
                      gcn_config=cfg, num_classes=ds.num_classes,
                      on_cell=finished)
    hom = homophily_report(ds.graph, ds.y, ds.num_classes)
    quad = skipped = None
    try:
        quad = assign_quadrants(hom["per_class"], *averaged_class_metrics(result))
    except GcnDiagError as exc:  # a grid subset or a failed cell
        skipped = str(exc)
        print(f"quadrants skipped: {skipped}", file=sys.stderr)
    config_echo = {
        "models": list(models),
        "masking_percent": [masking_percent(m) for m in masking],
        "feature_modes": list(modes),
        "seed": args.seed,
        "gcn": asdict(cfg),
        "undirected_edges": ds.graph.num_edges,
        "directed_edges": 2 * ds.graph.num_edges,
        "blas_threads": _blas_threads(),
    }
    save_report(build_report(ds.fingerprint(), config_echo, hom, result, quad,
                             cell_seconds, skipped), args.out)
    failures = {k: c for k, c in result.cells.items() if c.error}
    for key, cell in failures.items():
        print(f"cell {key} failed: {cell.error}", file=sys.stderr)
    return 1 if failures else 0


def cmd_quadrant(args) -> int:
    check_thresholds(args.homophily_threshold, args.f1_threshold)
    check_report_dir(args.out)
    report = load_report(args.results)
    try:
        summary = assign_quadrants(*_section_arrays(report),
                                   args.homophily_threshold, args.f1_threshold)
    except GcnDiagError as exc:  # the thresholds passed, so the report is at fault
        raise InputError(str(exc), path=args.results) from None
    save_report(summary, args.out)
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(n=args.n, num_classes=args.classes,
                         target_homophily=args.homophily,
                         avg_degree=args.degree, dim=args.dim,
                         signal=args.signal, seed=args.seed)
    graph, y = generate_graph(spec)
    x = generate_features(y, args.dim, args.signal,
                          seed=derive_seed(args.seed, "features"))
    name = (f"synth-n{args.n}-c{args.classes}-h{args.homophily}"
            f"-deg{args.degree}-d{args.dim}-s{args.signal}-seed{args.seed}")
    ds = Dataset(name=name, graph=graph, x=x, y=y, num_classes=args.classes)
    save_dataset(ds, args.out)
    save_report({"written": args.out, "n": graph.n,
                 "undirected_edges": graph.num_edges,
                 "fingerprint": ds.fingerprint()})
    return 0


def cmd_gradcheck(args) -> int:
    try:
        worst, count, largest = gradient_check(num_instances=args.instances,
                                               seed=args.seed)
    except AssertionError as exc:
        print(exc, file=sys.stderr)  # the message names the failed check
        return 1
    print(f"gradient check passed: {count} instances, "
          f"worst relative error {worst:.3e}, largest |analytic - numeric| "
          f"{largest:.3e} against a floor of {GRADCHECK_MIN_MAGNITUDE:.0e}")
    return 0


def cmd_tune(args) -> int:
    check_report_dir(args.out)
    base_cfg = GcnConfig(max_epochs=args.epochs)  # bad settings fail before loading
    ds = load_dataset(args.dataset)
    a = normalized_adjacency(ds.graph)
    split = make_split(ds.y, 0.0, args.seed, ds.num_classes)
    ax = spmm(a, ds.x)

    points = list(product(GCN_HIDDEN_GRID, GCN_DROPOUT_GRID, GCN_LR_GRID,
                          GCN_WD_GRID))

    def train_item(item):
        if isinstance(item, str):  # a baseline's name
            return fit_baseline(item, ds.x, ds.y, split.visible_idx,
                                derive_seed(args.seed, "tune", item),
                                ds.num_classes)
        hidden, dropout, lr, wd = item
        cfg = replace(base_cfg, hidden=hidden, dropout_rate=dropout,
                      learning_rate=lr, weight_decay=wd,
                      seed=derive_seed(args.seed, "tune", *item))
        trained = train_gcn(cfg, a, ds.x, ds.y, split, ds.num_classes, ax)
        return {"hidden": hidden, "dropout": dropout, "learning_rate": lr,
                "weight_decay": wd,
                "val_f1": max(v for _, v in trained.history),
                **trained.summary()}

    # The baselines and the points are independent and separately seeded, so
    # they train one per core; the baselines are the longest items, so they
    # start first. Each result goes to its item's place, keeping grid order.
    items = ["logreg", "svm", *points]
    results = [None] * len(items)
    finished, _ = _progress("item", len(items))
    for i, result, error, seconds in parallel.fork_map(train_item, items):
        if math.isnan(seconds):  # the item need not be the one that died
            raise GcnDiagError(f"a tune worker died: {error}")
        finished(items[i], seconds, error)
        if error:
            what = items[i] if isinstance(items[i], str) else f"point {items[i]}"
            raise GcnDiagError(f"tune {what} failed: {error}")
        results[i] = result
    lr_model, svm_model, *gcn_rows = results
    best_gcn = max(gcn_rows, key=lambda r: r["val_f1"])

    save_report({
        "blas_threads": _blas_threads(),
        "search_spaces": {
            "gcn": {"hidden": list(GCN_HIDDEN_GRID),
                    "dropout": list(GCN_DROPOUT_GRID),
                    "learning_rate": list(GCN_LR_GRID),
                    "weight_decay": list(GCN_WD_GRID)},
            "logreg_c": list(LOGREG_C_GRID),
            "svm_c": list(SVM_C_GRID),
        },
        "best": {
            "gcn": best_gcn,
            "logreg_c": lr_model.selected_reg,
            "svm_c": svm_model.selected_reg,
        },
        "unconverged": {"logreg": list(lr_model.unconverged),
                        "svm": list(svm_model.unconverged)},
        "gcn_grid": gcn_rows,
        "logreg_grid": list(lr_model.grid_scores),
        "svm_grid": list(svm_model.grid_scores),
    }, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcndiag",
        description="Diagnostics for when graph convolution helps node "
                    "classification and when plain feature models win.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="homophily report for a dataset")
    p.add_argument("dataset")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="run the model x masking x feature grid")
    p.add_argument("dataset")
    p.add_argument("--models", default=",".join(MODELS))
    p.add_argument("--masking",
                   default=",".join(str(masking_percent(r)) for r in MASKING_RATES),
                   help="comma-separated masking percents")
    p.add_argument("--features", default=",".join(FEATURE_MODES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--hidden", type=int, default=GcnConfig.hidden)
    p.add_argument("--dropout", type=float, default=GcnConfig.dropout_rate)
    p.add_argument("--learning-rate", type=float, default=GcnConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=GcnConfig.weight_decay)
    p.add_argument("--epochs", type=int, default=GcnConfig.max_epochs)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("quadrant",
                       help="re-threshold the quadrant section of a run report")
    p.add_argument("results")
    p.add_argument("--homophily-threshold", type=float,
                   default=HOMOPHILY_THRESHOLD)
    p.add_argument("--f1-threshold", type=float, default=F1_THRESHOLD)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quadrant)

    p = sub.add_parser("synth", help="generate a synthetic dataset container")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--homophily", type=float, required=True)
    p.add_argument("--degree", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signal", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("tune", help="hyperparameter search on one dataset")
    p.add_argument("dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=GcnConfig.max_epochs)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GcnDiagError as exc:
        where = getattr(exc, "path", None)
        if where is not None and getattr(exc, "line", None) is not None:
            where = f"{where}:{exc.line}"
        print(f"error: {exc}" if where is None else f"error: {where}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
