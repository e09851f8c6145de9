"""Feature-only linear baselines: multinomial logistic regression and OvR SVM.

Both models see z-score normalized features and balanced class weights, and
select their regularization strength from the fixed search grids below. The
logistic regression objective and gradient are defined here; minimization is
delegated to L-BFGS (deterministic, stops at gradient norm 1e-6 or 1000
iterations). The SVM minimizes the weighted hinge loss with a deterministic
full-batch AdaGrad subgradient loop that fits the whole C grid at once; each
C's result is bit-identical to fitting that C alone (see ``_fit_svm_ovr``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, check_finite
from .gcn import class_weights, softmax_cross_entropy
from .metrics import score
from .protocol import carve_validation

LOGREG_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
LOGREG_FOLDS = 5
SVM_C_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

LOGREG_GTOL = 1e-6
LOGREG_MAX_ITER = 1000
SVM_ITERATIONS = 2000
SVM_STEP = 0.5


@dataclass(frozen=True)
class Scaler:
    """Per-feature mean/std fitted on the visible training rows.

    Constant features get std 1 so normalization maps them to zero instead of
    dividing by zero.
    """

    mean: np.ndarray
    std: np.ndarray


def fit_scaler(x: np.ndarray, visible_rows) -> Scaler:
    visible_rows = np.asarray(visible_rows)
    if visible_rows.size == 0:
        raise InputError("cannot fit a scaler on an empty visible set")
    sub = np.asarray(x, dtype=np.float64)[visible_rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)  # population std
    std = np.where(std == 0, 1.0, std)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != scaler.mean.size:
        raise ShapeError(
            f"scaler fitted on {scaler.mean.size} features, got {x.shape[1]}"
        )
    return (x - scaler.mean) / scaler.std


@dataclass
class LinearModel:
    kind: str  # "logreg" or "svm"
    weights: np.ndarray  # d x C
    bias: np.ndarray  # length C
    selected_reg: float
    grid_scores: tuple = ()  # (reg value, selection macro-F1) pairs


def _argmax_scores(x_norm, W, b) -> np.ndarray:
    """Argmax of X W + b per row; ties break toward the lowest class id."""
    return np.argmax(x_norm @ W + b, axis=1)


def linear_predict(model: LinearModel, x_norm: np.ndarray) -> np.ndarray:
    """Class of each row under a fitted model (see ``_argmax_scores``)."""
    x_norm = np.asarray(x_norm, dtype=np.float64)
    if x_norm.shape[1] != model.weights.shape[0]:
        raise ShapeError(
            f"model expects {model.weights.shape[0]} features, got {x_norm.shape[1]}"
        )
    return _argmax_scores(x_norm, model.weights, model.bias)


def logreg_objective(wb, X, y, sample_w, reg_c, num_classes):
    """Weighted multinomial cross-entropy plus 1/(2 C_reg) ||W||^2; bias free.

    Returns (objective, flat gradient). ``wb`` packs W (d x C) then b (C).
    """
    d = X.shape[1]
    W = wb[: d * num_classes].reshape(d, num_classes)
    b = wb[d * num_classes:]
    ce, p = softmax_cross_entropy(X @ W + b, y)
    obj = float((sample_w * ce).sum() + (W * W).sum() / (2.0 * reg_c))
    p *= sample_w[:, None]
    grad_w = X.T @ p + W / reg_c
    grad_b = p.sum(axis=0)
    return obj, np.concatenate([grad_w.ravel(), grad_b])


def fit_logreg(X, y, sample_w, reg_c, num_classes):
    """Minimize the logistic objective with L-BFGS from a zero start."""
    from scipy.optimize import minimize  # deferred: slow to import, logreg only

    d = X.shape[1]
    x0 = np.zeros(d * num_classes + num_classes)
    res = minimize(
        logreg_objective,
        x0,
        args=(X, y, sample_w, reg_c, num_classes),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": LOGREG_MAX_ITER, "gtol": LOGREG_GTOL, "ftol": 1e-14},
    )
    W = res.x[: d * num_classes].reshape(d, num_classes)
    b = res.x[d * num_classes:]
    return W, b


def stratified_kfold(y, indices, folds: int, rng: np.random.Generator):
    """Deterministic stratified folds over ``indices``; returns (train, val) pairs."""
    indices = np.asarray(indices)
    y = np.asarray(y)
    assignment = np.empty(indices.size, dtype=np.int64)
    for c in np.unique(y[indices]):
        members = np.flatnonzero(y[indices] == c)
        perm = rng.permutation(members)
        assignment[perm] = np.arange(perm.size) % folds
    out = []
    for f in range(folds):
        val = indices[assignment == f]
        train = indices[assignment != f]
        out.append((train, val))
    return out


def _check_visible(y, visible_rows):
    visible_rows = np.asarray(visible_rows)
    if visible_rows.size == 0:
        raise InputError("visible training set is empty")
    classes = np.unique(np.asarray(y)[visible_rows])
    if classes.size < 2:
        raise InputError("visible training set contains a single class")
    return visible_rows


def train_logreg(x_norm, y, visible_rows, seed: int = 0,
                 num_classes=None) -> LinearModel:
    """Select C_reg by stratified k-fold CV macro-F1, then refit on all visible rows.

    Folds shrink to the smallest per-class count when classes are scarce;
    below 2 usable folds there is nothing to cross-validate and we fail fast.
    """
    y = np.asarray(y)
    visible_rows = _check_visible(y, visible_rows)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    x_norm = np.asarray(x_norm, dtype=np.float64)
    check_finite(x_norm)

    counts = np.bincount(y[visible_rows], minlength=num_classes)
    folds_eff = min(LOGREG_FOLDS, int(counts[counts > 0].min()))
    if folds_eff < 2:
        raise InputError(
            "cross-validation needs every visible class to have at least 2 "
            f"examples; smallest has {int(counts[counts > 0].min())}"
        )

    rng = np.random.default_rng(seed)
    # fold-major, so each fold's rows are sliced once and only one fold is held
    fold_f1 = [[] for _ in LOGREG_C_GRID]
    for train_idx, val_idx in stratified_kfold(y, visible_rows, folds_eff, rng):
        X_tr, y_tr = x_norm[train_idx], y[train_idx]
        X_val, y_val = x_norm[val_idx], y[val_idx]
        sw = class_weights(y, train_idx, num_classes)[y_tr]
        for reg_c, scores in zip(LOGREG_C_GRID, fold_f1):
            W, b = fit_logreg(X_tr, y_tr, sw, reg_c, num_classes)
            pred = _argmax_scores(X_val, W, b)
            scores.append(score(pred, y_val, num_classes).macro_f1)
    grid_scores = [(reg_c, float(np.mean(scores)))
                   for reg_c, scores in zip(LOGREG_C_GRID, fold_f1)]

    best = max(range(len(grid_scores)), key=lambda i: grid_scores[i][1])
    selected = grid_scores[best][0]
    sw = class_weights(y, visible_rows, num_classes)[y[visible_rows]]
    W, b = fit_logreg(x_norm[visible_rows], y[visible_rows], sw, selected, num_classes)
    return LinearModel(
        kind="logreg", weights=W, bias=b,
        selected_reg=selected, grid_scores=tuple(grid_scores),
    )


def _fit_svm_ovr(X, Y_signed, sample_w, regs, iterations=SVM_ITERATIONS):
    """All one-vs-rest hinge problems for every C in ``regs`` at once, by
    full-batch AdaGrad subgradient steps.

    Objective per class c: (lambda/2)||w_c||^2 + sum_i s_ic hinge_ic with
    column-normalized weights and lambda = 1 / (C_reg * total weight); the
    bias is unregularized. Returns the tail averages of the iterates, W as
    (G, d, C) and b as (G, C) for the G values of ``regs``.

    The n x C scores of every C sit side by side in one n x G x C buffer, so
    elementwise work and the in-order bias-gradient row sum run over
    G*C-wide rows. Both products (X W and X^T active) stay one gemm per C on
    a strided view, with the operands and order of fitting that C alone, so
    each result is bit-identical to a separate fit whenever d >= 2. (With
    d = 1 numpy uses a matrix-vector kernel whose rounding depends on the
    stride.)
    """
    d, G, C = X.shape[1], len(regs), Y_signed.shape[1]
    col_tot = sample_w.sum(axis=0)
    s_norm = sample_w / col_tot
    y_rep = np.repeat(Y_signed[:, None, :], G, axis=1)
    sy_rep = np.repeat((s_norm * Y_signed)[:, None, :], G, axis=1)
    # per grid value and class, equal across classes under balanced weights
    lam = (1.0 / (np.asarray(regs, dtype=np.float64)[:, None] * col_tot))[:, None, :]

    W = np.zeros((G, d, C))
    b = np.zeros((G, C))
    gw_acc, W_avg, gw, tmp = (np.zeros_like(W) for _ in range(4))
    gb_acc, b_avg = np.zeros_like(b), np.zeros_like(b)
    z, active = np.empty(y_rep.shape), np.empty(y_rep.shape)
    z_per_c, active_per_c = z.transpose(1, 0, 2), active.transpose(1, 0, 2)
    tail = max(1, iterations // 4)
    for t in range(iterations):
        np.matmul(X, W, out=z_per_c)
        z += b
        z *= y_rep
        np.less(z, 1.0, out=active)  # margin < 1, as 0.0 / 1.0
        active *= sy_rep
        np.matmul(X.T, active_per_c, out=tmp)
        np.multiply(lam, W, out=gw)
        gw -= tmp
        gb = -active.sum(axis=0)
        np.multiply(gw, gw, out=tmp)
        gw_acc += tmp
        gb_acc += gb * gb
        np.sqrt(gw_acc, out=tmp)
        tmp += 1e-12
        gw *= SVM_STEP
        gw /= tmp
        W -= gw
        b -= SVM_STEP * gb / (np.sqrt(gb_acc) + 1e-12)
        if t >= iterations - tail:
            W_avg += W
            b_avg += b
    return W_avg / tail, b_avg / tail


def train_svm(x_norm, y, visible_rows, seed: int = 0,
              num_classes=None) -> LinearModel:
    """Grid search on a stratified holdout by macro-F1; refit on all visible rows."""
    y = np.asarray(y)
    visible_rows = _check_visible(y, visible_rows)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    x_norm = np.asarray(x_norm, dtype=np.float64)
    check_finite(x_norm)

    fit_idx, val_idx = carve_validation(y, visible_rows, 0.2, seed)
    if val_idx.size == 0:
        raise InputError("too few visible examples to carve an SVM validation split")

    def signed_and_weights(idx):
        Y = -np.ones((idx.size, num_classes))
        Y[np.arange(idx.size), y[idx]] = 1.0
        pos = Y > 0
        n_pos = pos.sum(axis=0)
        n_neg = idx.size - n_pos
        s = np.where(pos, idx.size / (2.0 * np.maximum(n_pos, 1)),
                     idx.size / (2.0 * np.maximum(n_neg, 1)))
        return Y, s

    Y_fit, s_fit = signed_and_weights(fit_idx)
    Ws, bs = _fit_svm_ovr(x_norm[fit_idx], Y_fit, s_fit, SVM_C_GRID)
    grid_scores = [
        (reg_c, score(_argmax_scores(x_norm[val_idx], W, b), y[val_idx],
                      num_classes).macro_f1)
        for reg_c, W, b in zip(SVM_C_GRID, Ws, bs)
    ]

    best = max(range(len(grid_scores)), key=lambda i: grid_scores[i][1])
    selected = grid_scores[best][0]
    Y_all, s_all = signed_and_weights(visible_rows)
    Ws, bs = _fit_svm_ovr(x_norm[visible_rows], Y_all, s_all, [selected])
    return LinearModel(
        kind="svm", weights=Ws[0], bias=bs[0],
        selected_reg=selected, grid_scores=tuple(grid_scores),
    )
