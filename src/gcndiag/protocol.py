"""Label-scarcity experiment protocol: splits, masking, ablation, grid runs.

All randomness flows through named seeds derived from one base seed, so any
cell of a grid can be reproduced in isolation. Masking is nested: the visible
set at 90% masking is a subset of the visible set at 50%, which is a subset of
the full training labels. That keeps scarcity comparisons about quantity, not
about which particular nodes happened to be drawn. Every stratified draw,
from the split to the CV folds, permutes each class by ``_permuted_classes``.
"""

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InputError, check_finite, check_labels, check_settings,
                     is_integer)
from .metrics import ModelScores, score

MODELS = ("gcn", "logreg", "svm")
MASKING_RATES = (0.0, 0.5, 0.9)
FEATURE_MODES = ("original", "random")
VAL_FRACTION = 0.2
TRAIN_FRACTION = 0.8


def derive_seed(base_seed: int, *parts) -> int:
    """Stable named sub-seed: blake2b over a canonical string, not Python hash().
    Any integer is a ``base_seed``; anything else (1.5, True) is an InputError."""
    check_settings("base", (("seed", base_seed, "an integer",
                             is_integer(base_seed)),))
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
    """The whole percent that names a masking rate in cell keys and reports;
    any other rate, beyond float error, would run one cell under another's
    name, so it is an InputError."""
    pct = masking_rate * 100
    if not abs(pct - np.round(pct)) <= 1e-9:  # NaN and inf fail too
        raise InputError(f"masking percent {pct:g} is not a whole number")
    return int(round(pct))


def cell_key(model: str, masking_rate: float, feature_mode: str) -> str:
    return f"{model}:{masking_percent(masking_rate)}:{feature_mode}"


@dataclass
class ExperimentResult:
    """All cells of one grid run plus the ingredients to interpret them."""

    base_seed: int
    num_classes: int
    cells: dict  # key "model:pct:mode" (``cell_key``) -> CellResult


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
    or its error, and its wall time come back; each CellResult is built here
    as its cell finishes, in the cell's grid-order place in ``cells``.
    ``on_cell(key, seconds, error)`` hears of each cell as it finishes;
    ``seconds`` is NaN when the cell's worker died. A failing cell records
    its error instead of aborting its siblings; non-finite features fail
    the whole run before any cell.
    An unknown model or feature mode, a name or a percent given twice, a
    rate that is not a whole percent, a base seed that is not an integer,
    and a label that is not a class id are InputErrors before any split is
    drawn.
    """
    # deferred: baselines imports protocol, and tracers patch these names
    from .baselines import fit_baseline
    from .gcn import GcnConfig, train_gcn
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
    tasks = [(m, r, f, derive_seed(base_seed, m, masking_percent(r), f))
             for m in models for r in masking_rates for f in feature_modes]
    cells = dict.fromkeys(cell_key(*task[:3]) for task in tasks)
    # longest first; the sort is stable, so grid order within a model
    tasks.sort(key=lambda task: ("logreg", "svm", "gcn").index(task[0]))
    y = check_labels(y, num_classes)
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

    def fit_and_score(task):
        """(scores, hyper), both plain enough to pickle."""
        model, rate, mode, cell_seed = task
        split = splits[rate]
        feats = feature_sets[mode]
        if model == "gcn":
            fitted = train_gcn(replace(gcn_config, seed=cell_seed), a, feats,
                               y, split, num_classes, propagated[mode])
        else:
            fitted = fit_baseline(model, feats, y, split.visible_idx,
                                  cell_seed, num_classes)
        test = split.test_idx
        return (score(fitted.predictions[test], y[test], num_classes),
                fitted.summary())

    for i, result, error, seconds in fork_map(fit_and_score, tasks):
        model, rate, mode, _ = tasks[i]
        key = cell_key(model, rate, mode)
        scores, hyper = result or (None, {})
        cells[key] = CellResult(model=model, masking_rate=rate, feature_mode=mode,
                                scores=scores, selected_hyper=hyper, error=error)
        if on_cell is not None:
            on_cell(key, seconds, error)
    return ExperimentResult(base_seed=base_seed, num_classes=num_classes, cells=cells)
