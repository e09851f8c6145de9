"""Feature-only linear baselines: multinomial logistic regression and OvR SVM.

``fit_baseline`` standardizes each feature on the visible training rows, to
zero mean and unit population std (a constant feature maps to 0), and trains
``train_logreg`` or ``train_svm`` on the result. Both use balanced class
weights and select their regularization strength from the fixed grids below,
the first on a tie, then refit it on every visible row.
Logistic regression minimizes a weighted multinomial cross-entropy
(``logreg_objective``). The SVM minimizes the L2-regularized one-vs-rest
squared hinge, the default loss of LIBLINEAR and LinearSVC, with all classes
in one problem (``svm_objective``). Both objectives are differentiable, with
hand-written gradients, and both go through one deterministic L-BFGS
(``_minimize_lbfgs``, numpy only). It keeps the last ``LBFGS_HISTORY``
(s, y) pairs in a deque and turns the gradient into a search direction by
the two-loop recursion. Its line search bisects or doubles the step until
the weak Wolfe conditions hold (``WOLFE_C1``, ``WOLFE_C2``); the first step
is scaled by 1/max(1, ||g||). A fit has converged when the gradient's
largest entry is at most ``LBFGS_GTOL`` or an iteration lowers the objective
by at most ``LBFGS_FTOL`` relative to the larger of 1 and the objective's
magnitude before and after. It has not converged when it reaches
``LBFGS_MAX_ITER`` iterations or when a line search finds no step in
``LINE_SEARCH_TRIALS`` evaluations.

Logistic regression starts every fit at zero. The SVM objective is strictly
convex, so its optimum does not depend on the start: its fits walk the
ascending C grid, each starting at the previous C's optimum, and the refit
starts at the selected C's optimum. On near-separable data this saves most
of the iterations a large C needs from zero. A fitted ``LinearModel`` lists
in ``unconverged`` every C_reg, from the selection grid or the refit, whose
fit did not converge, so a capped fit or a failed line search is visible
rather than silent.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, check_finite
from .gcn import class_weights, softmax_cross_entropy
from .metrics import score
from .protocol import carve_validation, stratified_kfold

LOGREG_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
LOGREG_FOLDS = 5
SVM_C_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

LBFGS_GTOL = 1e-6
LBFGS_FTOL = 1e-14
LBFGS_MAX_ITER = 1000
LBFGS_HISTORY = 10
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
LINE_SEARCH_TRIALS = 40
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class LinearModel:
    weights: np.ndarray  # d x C
    bias: np.ndarray  # length C
    selected_reg: float
    grid_scores: tuple = ()  # (reg value, selection macro-F1) pairs
    unconverged: tuple = ()  # reg values, in grid order, with a fit not converged


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


def _unpack(wb, d, num_classes):
    """Split a flat parameter vector into W (d x C) and b (C)."""
    return wb[: d * num_classes].reshape(d, num_classes), wb[d * num_classes:]


def logreg_objective(wb, X, y, sample_w, reg_c, num_classes):
    """Weighted multinomial cross-entropy plus 1/(2 C_reg) ||W||^2; bias free.

    Returns (objective, flat gradient). ``wb`` packs W (d x C) then b (C).
    """
    W, b = _unpack(wb, X.shape[1], num_classes)
    ce, p = softmax_cross_entropy(X @ W + b, y)
    obj = float((sample_w * ce).sum() + (W * W).sum() / (2.0 * reg_c))
    p *= sample_w[:, None]
    grad_w = X.T @ p + W / reg_c
    grad_b = p.sum(axis=0)
    return obj, np.concatenate([grad_w.ravel(), grad_b])


def svm_objective(wb, X, Y_signed, sample_w, reg_c):
    """One-vs-rest squared hinge over every class at once; bias free.

    Per class c: sum_i s_ic max(0, 1 - y_ic z_ic)^2 + (lambda_c / 2)||w_c||^2,
    where z = X W + b, y is +1/-1 (``Y_signed``, n x C), s is ``sample_w``
    (n x C) divided by its column sums and lambda_c = 1 / (C_reg * sum_i
    sample_w_ic). Returns (objective, flat gradient). ``wb`` packs W (d x C)
    then b (C).
    """
    col_tot = sample_w.sum(axis=0)
    s_norm = sample_w / col_tot
    lam = 1.0 / (reg_c * col_tot)
    W, b = _unpack(wb, X.shape[1], Y_signed.shape[1])
    slack = np.maximum(0.0, 1.0 - Y_signed * (X @ W + b))
    obj = float((s_norm * slack * slack).sum() + 0.5 * (lam * W * W).sum())
    dz = -2.0 * s_norm * Y_signed * slack
    grad_w = X.T @ dz + lam * W
    grad_b = dz.sum(axis=0)
    return obj, np.concatenate([grad_w.ravel(), grad_b])


def _wolfe_step(objective, args, x, f, g, d, t):
    """Find a step along the descent direction ``d`` that meets the weak Wolfe
    conditions, bisecting or doubling from the trial step ``t``. Returns
    (x_new, f_new, g_new), or None when ``d`` is not a descent direction or
    no step is found in ``LINE_SEARCH_TRIALS`` evaluations."""
    gd = g @ d
    if not gd < 0.0:
        return None
    lo, hi = 0.0, np.inf
    for _ in range(LINE_SEARCH_TRIALS):
        x_new = x + t * d
        f_new, g_new = objective(x_new, *args)
        if not f_new <= f + WOLFE_C1 * t * gd:  # also rejects a non-finite value
            hi = t
        elif g_new @ d < WOLFE_C2 * gd:
            lo = t
        else:
            return x_new, f_new, g_new
        t = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t
    return None


def _minimize_lbfgs(objective, x0, args):
    """Minimize ``objective(x, *args) -> (value, gradient)`` by L-BFGS from
    ``x0``. Returns (x, iterations, converged); see the module docstring for
    the stopping rules."""
    x = np.array(x0, dtype=np.float64)
    f, g = objective(x, *args)
    if np.abs(g).max() <= LBFGS_GTOL:
        return x, 0, True
    pairs = deque(maxlen=LBFGS_HISTORY)  # (s, y, 1/s'y), oldest first
    gamma = 1.0
    t = 1.0 / max(1.0, float(np.sqrt(g @ g)))
    for it in range(1, LBFGS_MAX_ITER + 1):
        # two-loop recursion: d = -H g with H0 = gamma I
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * s.dot(d)
            d -= a * y
            alphas.append(a)
        d *= gamma
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * y.dot(d)) * s

        step = _wolfe_step(objective, args, x, f, g, d, t)
        if step is None:
            return x, it - 1, False
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy, yy = s.dot(y), y.dot(y)
        if sy > _EPS * yy:  # a pair with s'y <= 0 would make H indefinite
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / yy
        f_old, x, f, g, t = f, x_new, f_new, g_new, 1.0
        if (np.abs(g).max() <= LBFGS_GTOL
                or f_old - f <= LBFGS_FTOL * max(abs(f_old), abs(f), 1.0)):
            return x, it, True
    return x, LBFGS_MAX_ITER, False


def fit_logreg(X, y, sample_w, reg_c, num_classes):
    """Minimize ``logreg_objective``; returns (W, b, converged)."""
    d = X.shape[1]
    wb, _, converged = _minimize_lbfgs(
        logreg_objective, np.zeros(d * num_classes + num_classes),
        (X, y, sample_w, reg_c, num_classes))
    return *_unpack(wb, d, num_classes), converged


def _check_visible(x_norm, y, visible_rows):
    """The trainers' shared prelude; returns the checked (x_norm, y,
    visible_rows). An empty or single-class visible set is reported before a
    non-finite feature."""
    y = np.asarray(y)
    visible_rows = np.asarray(visible_rows)
    if visible_rows.size == 0:
        raise InputError("visible training set is empty")
    if np.unique(y[visible_rows]).size < 2:
        raise InputError("visible training set contains a single class")
    x_norm = np.asarray(x_norm, dtype=np.float64)
    check_finite(x_norm)
    return x_norm, y, visible_rows


def _select_and_refit(grid_scores, failed, refit) -> LinearModel:
    """Refit at the best-scoring (C_reg, score) pair of ``grid_scores``, the
    first on a tie, by ``refit(i) -> (W, b, converged)``; ``failed`` holds the
    C_reg values whose selection fits did not converge."""
    best = max(range(len(grid_scores)), key=lambda i: grid_scores[i][1])
    selected = grid_scores[best][0]
    W, b, converged = refit(best)
    if not converged:
        failed.add(selected)
    return LinearModel(
        weights=W, bias=b, selected_reg=selected, grid_scores=tuple(grid_scores),
        unconverged=tuple(c for c, _ in grid_scores if c in failed))


def train_logreg(x_norm, y, visible_rows, seed: int = 0, *,
                 num_classes: int) -> LinearModel:
    """Select C_reg by stratified k-fold CV macro-F1, then refit on all visible rows.

    Folds shrink to the smallest per-class count when classes are scarce;
    below 2 usable folds there is nothing to cross-validate and we fail fast.
    """
    x_norm, y, visible_rows = _check_visible(x_norm, y, visible_rows)

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
    failed = set()
    for train_idx, val_idx in stratified_kfold(y, visible_rows, folds_eff, rng):
        X_tr, y_tr = x_norm[train_idx], y[train_idx]
        X_val, y_val = x_norm[val_idx], y[val_idx]
        sw = class_weights(y, train_idx, num_classes)[y_tr]
        for reg_c, scores in zip(LOGREG_C_GRID, fold_f1):
            W, b, converged = fit_logreg(X_tr, y_tr, sw, reg_c, num_classes)
            if not converged:
                failed.add(reg_c)
            pred = _argmax_scores(X_val, W, b)
            scores.append(score(pred, y_val, num_classes).macro_f1)
    grid_scores = [(reg_c, float(np.mean(scores)))
                   for reg_c, scores in zip(LOGREG_C_GRID, fold_f1)]

    sw = class_weights(y, visible_rows, num_classes)[y[visible_rows]]
    return _select_and_refit(grid_scores, failed, lambda i: fit_logreg(
        x_norm[visible_rows], y[visible_rows], sw, LOGREG_C_GRID[i], num_classes))


def _fit_svm_ovr(X, Y_signed, sample_w, reg_c, W0, b0):
    """Minimize ``svm_objective`` for one C_reg from (W0, b0); returns
    (W, b, converged)."""
    wb, _, converged = _minimize_lbfgs(
        svm_objective, np.concatenate([W0.ravel(), b0]),
        (X, Y_signed, sample_w, reg_c))
    return *_unpack(wb, *W0.shape), converged


def train_svm(x_norm, y, visible_rows, seed: int = 0, *,
              num_classes: int) -> LinearModel:
    """Grid search on a stratified holdout by macro-F1; refit on all visible rows."""
    x_norm, y, visible_rows = _check_visible(x_norm, y, visible_rows)

    fit_idx, val_idx = carve_validation(y, visible_rows, seed)
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
    X_fit, X_val, y_val = x_norm[fit_idx], x_norm[val_idx], y[val_idx]
    W, b = np.zeros((x_norm.shape[1], num_classes)), np.zeros(num_classes)
    fits, grid_scores, failed = [], [], set()
    # SVM_C_GRID ascends; each fit starts at the previous C's optimum
    for reg_c in SVM_C_GRID:
        W, b, converged = _fit_svm_ovr(X_fit, Y_fit, s_fit, reg_c, W, b)
        if not converged:
            failed.add(reg_c)
        fits.append((W, b))
        pred = _argmax_scores(X_val, W, b)
        grid_scores.append((reg_c, score(pred, y_val, num_classes).macro_f1))

    del X_fit, X_val  # release the split's copies before the refit's own
    Y_all, s_all = signed_and_weights(visible_rows)
    return _select_and_refit(grid_scores, failed, lambda i: _fit_svm_ovr(
        x_norm[visible_rows], Y_all, s_all, SVM_C_GRID[i], *fits[i]))


def fit_baseline(model: str, x, y, visible_rows, seed: int, num_classes):
    """(fitted ``model``, x standardized on the visible rows) for "logreg" or
    "svm"; any other model is an InputError. The trainer is looked up at call
    time, so a patched one runs."""
    trainers = {"logreg": train_logreg, "svm": train_svm}
    if model not in trainers:
        raise InputError(f"unknown baseline {model!r}; choose from logreg, svm")
    visible_rows = np.asarray(visible_rows)
    if visible_rows.size == 0:
        raise InputError("cannot fit a scaler on an empty visible set")
    x = np.asarray(x, dtype=np.float64)
    sub = x[visible_rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)  # population std
    del sub  # release the visible rows' copy before training
    x_norm = (x - mean) / np.where(std == 0, 1.0, std)
    return trainers[model](x_norm, y, visible_rows, seed=seed,
                           num_classes=num_classes), x_norm
