"""Child-side probes for the benchmark harness in run.py.

Each mode runs in a fresh interpreter with the tree's ``src`` first on
PYTHONPATH and prints one JSON object (or writes it to a file):

  probe.py setup CONTAINER
      time ``import gcndiag.cli``, then ``load_dataset`` and
      ``normalized_adjacency`` on the container.
  probe.py dropout CONTAINER HIDDEN SECONDS
      time public ``gcn_forward`` on the container's shapes with
      ``dropout_rate=0.5`` and an rng against ``dropout_rate=0``.
  probe.py trace SPANS_OUT -- CLI_ARGS...
      run ``gcndiag.cli.main(CLI_ARGS)`` with spans recorded around the
      calls into each module's public functions, and write the spans to
      SPANS_OUT when it returns.

The tracer only replaces module attributes that callers look up at call
time; nothing inside the program is instrumented.
"""

import itertools
import json
import sys
import threading
import time

# numpy is imported inside the functions that need it, so that the setup and
# trace modes time ``import gcndiag.cli`` from a cold interpreter.

MODELS = ("gcn", "logreg", "svm")


def setup(container):
    t0 = time.perf_counter()
    import gcndiag.cli as cli
    t1 = time.perf_counter()
    ds = cli.load_dataset(container)
    t2 = time.perf_counter()
    cli.normalized_adjacency(ds.graph)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "normalize_s": t3 - t2,
            "setup_s": t3 - t0}


def dropout(container, hidden, seconds):
    """Median ms of a train-mode forward (both dropout masks) minus eval mode."""
    import numpy as np
    from gcndiag import gcn_forward, load_dataset, normalized_adjacency
    from gcndiag.gcn import init_params

    ds = load_dataset(container)
    a = normalized_adjacency(ds.graph)
    params = init_params(np.random.default_rng(0), ds.x.shape[1], hidden,
                         ds.num_classes)
    rng = np.random.default_rng(1)
    timed = {0.5: [], 0.0: []}
    end = time.perf_counter() + seconds
    while len(timed[0.0]) < 5 or time.perf_counter() < end:
        for rate in (0.5, 0.0):  # alternate so drift hits both sides alike
            t0 = time.perf_counter()
            gcn_forward(params, a, ds.x, dropout_rate=rate, rng=rng)
            timed[rate].append(time.perf_counter() - t0)
    with_ms, without_ms = (1e3 * float(np.median(timed[r])) for r in (0.5, 0.0))
    return {"dropout_ms": with_ms - without_ms, "forward_ms": without_ms,
            "pairs": len(timed[0.0])}


def _nbytes(obj, depth=2):
    """Bytes held in numpy arrays reachable through ``obj``'s attributes."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(_nbytes(v, depth - 1) for v in vars(obj).values())


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, thread id, attrs)."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._matrix_bytes = {}

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, fn, name, describe=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if describe is not None:
                attrs = describe(args, result)
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), attrs))
            return result
        return traced

    def counted(self, fn, name):
        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counting

    def patch(self, targets, name, make):
        """Replace ``module.attr`` for every (module, attr) in ``targets`` that
        still holds the first target's function, with ``make(fn, name)``."""
        module, attr = targets[0]
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        replacement = make(original, name)
        for module, attr in targets:
            if getattr(module, attr, None) is original:
                setattr(module, attr, replacement)

    def spmm_attrs(self, args, out):
        import numpy as np
        a, m = args[0], np.asarray(args[1])
        key = id(a)
        if key not in self._matrix_bytes:
            self._matrix_bytes[key] = _nbytes(a)
        return {"cols": int(m.shape[1]),
                "bytes": self._matrix_bytes[key] + m.nbytes + out.nbytes}

    def start_cell(self, parts):
        if len(parts) == 3 and parts[0] in MODELS:
            self._local.cell_start = time.perf_counter()

    def end_cell(self, model):
        start = getattr(self._local, "cell_start", None)
        if start is None:
            return
        self._local.cell_start = None
        self.spans.append((next(self._ids), "protocol.cell", start,
                           time.perf_counter(), None, threading.get_ident(),
                           {"model": model}))


def install(tracer):
    import gcndiag.baselines as baselines
    import gcndiag.cli as cli
    import gcndiag.gcn as gcn
    import gcndiag.graph as graph
    import gcndiag.protocol as protocol

    span = tracer.wrap
    tracer.patch([(cli, "load_dataset")], "dataset_io.load", span)
    tracer.patch([(cli, "normalized_adjacency")], "graph.normalize", span)
    tracer.patch([(cli, "homophily_report")], "homophily.report", span)
    tracer.patch([(cli, "run_grid")], "protocol.run_grid", span)
    tracer.patch([(protocol, "make_split"), (cli, "make_split")],
                 "protocol.make_split", span)
    tracer.patch([(gcn, "train_gcn"), (cli, "train_gcn")], "gcn.train",
                 lambda fn, name: tracer.wrap(fn, name, lambda args, r: {
                     "stopped_epoch": r.stopped_epoch,
                     "best_epoch": r.best_epoch}))
    tracer.patch([(gcn, "gcn_loss_and_grad")], "gcn.step", span)
    tracer.patch([(gcn, "gcn_predict")], "gcn.eval", span)
    tracer.patch([(gcn, "spmm"), (graph, "spmm")], "graph.spmm",
                 lambda fn, name: tracer.wrap(fn, name, tracer.spmm_attrs))
    tracer.patch([(baselines, "train_logreg"), (cli, "train_logreg")],
                 "baselines.logreg", span)
    tracer.patch([(baselines, "train_svm"), (cli, "train_svm")],
                 "baselines.svm", span)
    tracer.patch([(baselines, "fit_logreg")], "baselines.logreg_fit", span)
    tracer.patch([(baselines, "_fit_svm_ovr")], "baselines.svm_fit", span)
    tracer.patch([(baselines, "logreg_objective")], "baselines.logreg_eval",
                 tracer.counted)

    # A grid cell starts where run_grid derives its (model, pct, mode) seed
    # and ends where its CellResult is built, on success or failure alike.
    derive_seed = protocol.derive_seed

    def cell_seed(base_seed, *parts):
        tracer.start_cell(parts)
        return derive_seed(base_seed, *parts)

    class TracedCellResult(protocol.CellResult):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.end_cell(self.model)

    protocol.derive_seed = cell_seed
    protocol.CellResult = TracedCellResult
    return cli


def trace(spans_out, cli_args):
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "counts": tracer.counts, "missing": tracer.missing}, fh)
    return code


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "setup":
        print(json.dumps(setup(argv[1])))
    elif mode == "dropout":
        print(json.dumps(dropout(argv[1], int(argv[2]), float(argv[3]))))
    elif mode == "trace" and argv[2:3] == ["--"]:
        return trace(argv[1], argv[3:])
    else:
        print(f"usage: {__doc__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
