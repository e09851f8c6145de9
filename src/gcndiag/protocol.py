"""Label-scarcity experiment protocol: splits, masking, ablation, grid runs.

All randomness flows through named seeds derived from one base seed, so any
cell of a grid can be reproduced in isolation. Masking is nested: the visible
set at 90% masking is a subset of the visible set at 50%, which is a subset of
the full training labels. That keeps scarcity comparisons about quantity, not
about which particular nodes happened to be drawn. Every stratified draw,
from the split to the CV folds, permutes each class by ``_permuted_classes``.
"""

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import InputError, check_finite, require_keys
from .metrics import ModelScores, score

MODELS = ("gcn", "logreg", "svm")
MASKING_RATES = (0.0, 0.5, 0.9)
FEATURE_MODES = ("original", "random")
VAL_FRACTION = 0.2
TRAIN_FRACTION = 0.8


def derive_seed(base_seed: int, *parts) -> int:
    """Stable named sub-seed: blake2b over a canonical string, not Python hash()."""
    text = ":".join([str(int(base_seed))] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**63)


@dataclass(frozen=True)
class SplitSpec:
    """A fully materialized split. All index arrays are sorted and disjoint
    (except visible_idx = subtrain_idx | val_idx subset of train_idx)."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    visible_idx: np.ndarray
    subtrain_idx: np.ndarray
    val_idx: np.ndarray
    masking_rate: float
    seed: int


def _permuted_classes(y, idx, rng):
    """Yield (c, the members of ``idx`` in class c, ascending, then permuted)
    for each class c of ``y[idx]`` in ascending order. ``rng`` is one
    Generator for every class in turn, or a function class id -> Generator."""
    y_idx = y[idx]
    for c in np.unique(y_idx):
        members = np.sort(idx[y_idx == c])
        yield int(c), (rng(int(c)) if callable(rng) else rng).permutation(members)


def _partition(y, idx, rng, count):
    """(first, rest), both sorted: each class's permutation, cut after its
    first ``count(c, size)`` entries."""
    first, rest = [], []
    for c, perm in _permuted_classes(y, idx, rng):
        cut = count(c, perm.size)
        first.append(perm[:cut])
        rest.append(perm[cut:])
    return np.sort(np.concatenate(first)), np.sort(np.concatenate(rest))


def stratified_split(y, seed: int = 0):
    """Per-class split into (train_idx, test_idx), both sorted.

    Each class contributes floor(n_c * TRAIN_FRACTION + 0.5) training nodes,
    clamped so both sides keep at least one node. Classes with fewer than 2
    members cannot satisfy that and are an input error.
    """
    def n_train(c, size):
        if size < 2:
            raise InputError(f"class {c} has {size} node(s); need at least 2 "
                             "to appear on both sides of the split")
        return min(max(int(np.floor(size * TRAIN_FRACTION + 0.5)), 1), size - 1)

    y = np.asarray(y)
    return _partition(y, np.arange(y.size), np.random.default_rng(seed), n_train)


def apply_masking(y, train_idx, masking_rate: float, seed: int) -> np.ndarray:
    """Visible subset of train_idx after hiding ``masking_rate`` of each class.

    Nested by construction: each class keeps a prefix of one fixed permutation
    whose seed does not depend on the rate, so raising the rate only shrinks
    the kept prefix. Every class keeps at least one visible node.
    """
    if not 0.0 <= masking_rate < 1.0:
        raise InputError(f"masking rate must be in [0, 1), got {masking_rate}")
    return _partition(
        np.asarray(y), np.asarray(train_idx),
        lambda c: np.random.default_rng(derive_seed(seed, "mask-class", c)),
        lambda c, size: max(1, int(np.floor((1.0 - masking_rate) * size + 0.5))),
    )[0]


def carve_validation(y, visible_idx, seed: int = 0):
    """Split visible labels into (subtrain_idx, val_idx), stratified and sorted,
    with about VAL_FRACTION of each class in validation.

    A class with a single visible node keeps it for training and contributes
    nothing to validation.
    """
    visible_idx = np.asarray(visible_idx)
    if visible_idx.size == 0:
        raise InputError("cannot carve a validation set from an empty visible set")
    val_idx, subtrain_idx = _partition(
        np.asarray(y), visible_idx, np.random.default_rng(seed),
        lambda c, size: min(size - 1,
                            max(1, int(np.floor(size * VAL_FRACTION + 0.5)))))
    return subtrain_idx, val_idx


def stratified_kfold(y, indices, folds: int, rng: np.random.Generator):
    """Deterministic stratified folds over ``indices``; returns (train, val)
    pairs. Each class's positions in ``indices`` are permuted by ``rng``, and
    the j-th of them goes to fold j mod ``folds``."""
    indices = np.asarray(indices)
    assignment = np.empty(indices.size, dtype=np.int64)
    for _, perm in _permuted_classes(np.asarray(y)[indices],
                                     np.arange(indices.size), rng):
        assignment[perm] = np.arange(perm.size) % folds
    return [(indices[assignment != f], indices[assignment == f])
            for f in range(folds)]


def make_split(y, masking_rate: float, seed: int, num_classes: int) -> SplitSpec:
    """Full pipeline: stratified 80/20, per-class masking, validation carve.

    Fails fast if the surviving visible set is too thin to train on (fewer
    than two visible nodes per class on average).
    """
    y = np.asarray(y)
    train_idx, test_idx = stratified_split(y, derive_seed(seed, "split"))
    visible_idx = apply_masking(y, train_idx, masking_rate, derive_seed(seed, "mask"))
    if visible_idx.size < 2 * num_classes:
        raise InputError(
            f"only {visible_idx.size} visible labels for {num_classes} classes; "
            "need at least 2 per class on average"
        )
    subtrain_idx, val_idx = carve_validation(y, visible_idx, derive_seed(seed, "val"))
    return SplitSpec(
        train_idx=train_idx, test_idx=test_idx, visible_idx=visible_idx,
        subtrain_idx=subtrain_idx, val_idx=val_idx,
        masking_rate=masking_rate, seed=seed,
    )


def ablate_features(x: np.ndarray, seed: int) -> np.ndarray:
    """Replace the whole feature matrix with standard normal noise of the
    same shape. Used to isolate how much signal comes from the graph."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(np.asarray(x).shape)


@dataclass
class CellResult:
    model: str
    masking_rate: float
    feature_mode: str
    scores: ModelScores
    selected_hyper: dict = field(default_factory=dict)
    error: str = ""


def masking_percent(masking_rate: float) -> int:
    """The whole percent that names a masking rate in cell keys and reports."""
    return int(round(masking_rate * 100))


def cell_key(model: str, masking_rate: float, feature_mode: str) -> str:
    return f"{model}:{masking_percent(masking_rate)}:{feature_mode}"


def _required(cls):
    """Names of the fields of dataclass ``cls`` that have no default."""
    return [f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING]


def _json(kind):
    """Reader of a JSON value that must hold Python type ``kind``; true and
    false are not numbers."""
    def read(value):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TypeError
        return value
    return read


def _json_float(value):
    """A JSON number as a float; null reads back as the NaN it was written from."""
    return math.nan if value is None else float(_json((int, float))(value))


def _json_rate(value):
    """A masking rate: a finite JSON number in [0, 1)."""
    rate = float(_json((int, float))(value))
    if not 0.0 <= rate < 1.0:
        raise ValueError
    return rate


def _json_array(read, dtype):
    return lambda value: np.array([read(v) for v in _json(list)(value)], dtype=dtype)


def read_json(read, value, where):
    """``read(value)``; a value of the wrong JSON type or range is an
    InputError naming its path ``where`` in the report."""
    try:
        return read(value)
    except (TypeError, ValueError):
        raise InputError(f"malformed value at {where}: {value!r:.60}") from None


JSON_FLOATS = _json_array(_json_float, np.float64)  # null reads as NaN
_SCORES_JSON = {
    "per_class_f1": JSON_FLOATS,
    "macro_f1": _json_float,
    "confusion": _json_array(_json_array(_json(int), np.int64), np.int64),
    "absent_classes": lambda value: tuple(_json(int)(v) for v in _json(list)(value)),
}
_CELL_JSON = {"model": _json(str), "masking_rate": _json_rate,
              "feature_mode": _json(str), "selected_hyper": _json(dict),
              "error": _json(str)}


def _from_json(cls, d, readers, where):
    """Dataclass ``cls`` from its report form ``d``, each key read by
    ``readers``. A missing field without a default, an unknown key or a value
    of the wrong JSON type is an InputError naming its path in the report."""
    require_keys(d, _required(cls), where)
    values = {}
    for key, value in d.items():
        if key not in readers:
            raise InputError(f"unknown key {where}.{key}")
        values[key] = read_json(readers[key], value, f"{where}.{key}")
    return cls(**values)


@dataclass
class ExperimentResult:
    """All cells of one grid run plus the ingredients to interpret them."""

    base_seed: int
    num_classes: int
    cells: dict  # key "model:pct:mode" -> CellResult

    def cell(self, model: str, masking_rate: float,
             feature_mode: str = "original") -> CellResult:
        key = cell_key(model, masking_rate, feature_mode)
        if key not in self.cells:
            raise KeyError(f"no cell {key!r} in this run")
        return self.cells[key]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        """Rebuild a result from its report form, ``jsonable(asdict(result))``,
        found under a report's "grid" key. Malformed input is an InputError
        naming its path in the report, as in ``grid.cells["gcn:0:original"]``.
        So is a cell stored under another cell's key, and scores whose
        per-class F1 or confusion matrix does not fit ``num_classes``."""
        def cell(key, c):
            where = f'grid.cells["{key}"]'

            def scores(s):
                return None if s is None else _from_json(
                    ModelScores, s, _SCORES_JSON, where + ".scores")
            return _from_json(CellResult, c, {**_CELL_JSON, "scores": scores}, where)

        result = _from_json(cls, d, {
            "base_seed": _json(int), "num_classes": _json(int),
            "cells": lambda cells: {key: cell(key, c)
                                    for key, c in _json(dict)(cells).items()},
        }, "grid")
        k = result.num_classes
        for key, c in result.cells.items():
            where = f'grid.cells["{key}"]'
            own = cell_key(c.model, c.masking_rate, c.feature_mode)
            if key != own:
                raise InputError(f"{where} describes the cell {own}")
            if c.scores is None:
                continue
            if c.scores.per_class_f1.shape != (k,):
                raise InputError(
                    f"{where}.scores.per_class_f1 has "
                    f"{c.scores.per_class_f1.size} entries, not grid.num_classes {k}")
            if c.scores.confusion.shape != (k, k):
                raise InputError(
                    f"{where}.scores.confusion is {c.scores.confusion.shape}, "
                    f"not {(k, k)}")
        return result


def run_grid(a, x, y, base_seed: int = 0, models=MODELS,
             masking_rates=MASKING_RATES, feature_modes=FEATURE_MODES,
             gcn_config=None, *, num_classes: int, on_cell=None) -> ExperimentResult:
    """Run every (model, masking rate, feature mode) cell on one dataset.

    One stratified split per run; one random feature draw per run, shared by
    every "random" cell; one masking stream shared by all models so each
    model sees identical visible sets at a given rate. The GCN cells of a
    feature mode share one propagation A_hat * x. All of that, and every
    cell's seed, is worked out here before any cell runs. The cells then run
    through ``fork_map``, one per usable core, queued longest first: logreg,
    then SVM, then GCN cells. Only each cell's scores and hyperparameters,
    or its error, and its wall time come back; the CellResults are built
    here, in task order. ``on_cell(key, seconds, error)`` hears of each cell
    as it finishes; ``seconds`` is NaN when the cell's worker died. A failing cell records its error instead of aborting
    its siblings; non-finite features fail the whole run before any cell.
    An unknown model or feature mode, and a name or a masking percent given
    twice, is an InputError before any split is drawn.
    """
    # deferred: baselines imports protocol, and tracers patch these names
    from .baselines import fit_baseline, linear_predict
    from .gcn import GcnConfig, gcn_predict, train_gcn
    from .graph import spmm
    from .parallel import fork_map

    pcts = [masking_percent(r) for r in masking_rates]
    for what, given, known in (("model", models, MODELS),
                               ("feature mode", feature_modes, FEATURE_MODES),
                               ("masking percent", pcts, pcts)):
        for i, name in enumerate(given):
            if name not in known:
                raise InputError(
                    f"unknown {what} {name!r}; choose from {', '.join(known)}")
            if name in given[:i]:
                raise InputError(f"{what} {name!r} given twice")
    y = np.asarray(y)
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    if gcn_config is None:
        gcn_config = GcnConfig()

    feature_sets = {"original": x}
    if "random" in feature_modes:
        feature_sets["random"] = ablate_features(x, derive_seed(base_seed, "ablate"))

    splits = {m: make_split(y, m, base_seed, num_classes) for m in masking_rates}
    propagated = {mode: spmm(a, feature_sets[mode])
                  for mode in (feature_modes if "gcn" in models else ())}
    tasks = [(m, r, f, derive_seed(base_seed, m, masking_percent(r), f))
             for m in models for r in masking_rates for f in feature_modes]

    def fit_and_score(task):
        """(scores, hyper), both plain enough to pickle."""
        model, rate, mode, cell_seed = task
        split = splits[rate]
        feats = feature_sets[mode]
        if model == "gcn":
            cfg = replace(gcn_config, seed=cell_seed)
            trained = train_gcn(cfg, a, feats, y, split, num_classes,
                                propagated[mode])
            pred = gcn_predict(trained.params, a, feats, propagated[mode])
            hyper = trained.summary()
        else:
            fitted, feats_n = fit_baseline(model, feats, y, split.visible_idx,
                                           cell_seed, num_classes)
            pred = linear_predict(fitted, feats_n)
            hyper = {"selected_reg": fitted.selected_reg,
                     "unconverged_reg": list(fitted.unconverged)}
        scores = score(pred[split.test_idx], y[split.test_idx], num_classes)
        return scores, hyper

    queue = sorted(range(len(tasks)),  # longest first
                   key=lambda i: ("logreg", "svm", "gcn").index(tasks[i][0]))
    outcomes = [None] * len(tasks)
    for j, result, error, seconds in fork_map(fit_and_score,
                                              [tasks[i] for i in queue]):
        i = queue[j]
        outcomes[i] = result or (None, {}), error
        if on_cell is not None:
            on_cell(cell_key(*tasks[i][:3]), seconds, error)
    cells = {cell_key(model, rate, mode): CellResult(
                 model=model, masking_rate=rate, feature_mode=mode,
                 scores=scores, selected_hyper=hyper, error=error)
             for (model, rate, mode, _), ((scores, hyper), error)
             in zip(tasks, outcomes)}
    return ExperimentResult(base_seed=base_seed, num_classes=num_classes, cells=cells)
