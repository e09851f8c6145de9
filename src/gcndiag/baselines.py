"""Feature-only linear baselines: multinomial logistic regression and OvR SVM.

``fit_baseline`` standardizes each feature on the visible training rows, to
zero mean and unit population std (a constant feature maps to 0), and trains
``train_logreg`` or ``train_svm`` on the result. Both use balanced class
weights and select their regularization strength from the fixed grids below,
the first on a tie, then refit it on every visible row.
Logistic regression minimizes a weighted multinomial cross-entropy
(``logreg_objective``). The SVM minimizes the L2-regularized one-vs-rest
squared hinge, the default loss of LIBLINEAR and LinearSVC
(``svm_objective``). That loss is a sum of independent per-class problems,
each with its own lambda_c, so every class is fitted as its own problem.
Both objectives are differentiable, with hand-written gradients.

Every fit goes through one deterministic L-BFGS (``_minimize_lbfgs``, numpy
only) that solves a batch of independent problems in lockstep: a logreg
cell's cross-validation fits, every fold at every C, are one batch; every
SVM fit, at each C of its grid and in the refit, is one batch of its
classes; logreg's refit is a batch of one. Each round evaluates every searching problem's trial point in one
objective call, and a problem leaves the batch when it stops. The search
direction is the compact form of Byrd, Nocedal & Schnabel ("Representations
of quasi-Newton matrices and their use in limited memory methods", 1994),
vectorised over the batch: each problem keeps the (s, y) pairs of its last
``LBFGS_HISTORY`` iterations in ring slots beside the inverse of the upper
triangle of S'Y, updated one column per new pair, so no linear system is
solved; a pair with s'y <= 0 would make the inverse Hessian indefinite, so
its slot stays empty. Each problem has its own line search, which bisects or
doubles the step until the weak Wolfe conditions hold (``WOLFE_C1``,
``WOLFE_C2``); the first step is scaled by 1/max(1, ||g||). A product's
rounding depends on the batch's width, so a problem agrees with its fit
alone to about 1e-8, not bit for bit, and near its optimum the rounding of f
can outweigh any decrease left. The line search therefore also accepts a
step by the approximate Wolfe test of Hager & Zhang ("A new conjugate
gradient method with guaranteed descent and an efficient line search",
2005): f rises by at most ``LBFGS_FTOL`` times max(|f|, 1), the slope is at
most (2 ``WOLFE_C1`` - 1) times the first one, and the curvature condition
holds. A fit has converged when the gradient's largest entry is at most
``LBFGS_GTOL`` or an iteration lowers the objective by at most
``LBFGS_FTOL`` relative to the larger of 1 and the objective's magnitude
before and after. It has not converged when it reaches ``LBFGS_MAX_ITER``
iterations or when a line search finds no step in ``LINE_SEARCH_TRIALS``
evaluations.

Logistic regression starts every fit at zero. The SVM objective is strictly
convex, so its optimum does not depend on the start: its fits walk the
ascending C grid, each starting at the previous C's optimum, and the refit
starts at the selected C's optimum. On near-separable data this saves most
of the iterations a large C needs from zero. A fitted ``LinearModel`` lists
in ``unconverged`` every C_reg, from the selection grid or the refit, whose
fit did not converge, so a capped fit or a failed line search is visible
rather than silent.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_finite, check_labels
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
    predictions: np.ndarray  # class per row of the matrix it was trained on
    selected_reg: float
    grid_scores: tuple = ()  # (reg value, selection macro-F1) pairs
    unconverged: tuple = ()  # reg values, in grid order, with a fit not converged

    def summary(self) -> dict:
        """The selection record that reports show for a fit."""
        return {"selected_reg": self.selected_reg,
                "unconverged_reg": list(self.unconverged)}


def _argmax_scores(x_norm, W, b) -> np.ndarray:
    """Argmax of X W + b per row; ties break toward the lowest class id."""
    return np.argmax(x_norm @ W + b, axis=1)


def logreg_objective(wb, X, y, sample_w, reg_c, num_classes):
    """Weighted multinomial cross-entropy plus 1/(2 C_reg) ||W||^2; bias free.

    One problem per row of ``wb`` (k x p), all on the rows of ``X``: row j
    packs W (d x C) then b (C), and ``reg_c[j]`` is its C_reg. Returns
    (objectives (k,), gradients k x p). The k problems share one product
    pair, X [W_1 ... W_k] and X' P, and each objective sums over a
    contiguous row, so a batch of one rounds as a lone problem always did.
    """
    k, (n, d), C = wb.shape[0], X.shape, num_classes
    W = wb[:, :d * C].reshape(k, d, C)
    reg_c = np.asarray(reg_c, dtype=np.float64)
    z = X @ W.transpose(1, 0, 2).reshape(d, k * C)
    z += wb[:, d * C:].ravel()
    ce, p = softmax_cross_entropy(z.reshape(n, k, C), y)
    obj = ((sample_w * np.ascontiguousarray(ce.T)).sum(axis=1)
           + (W * W).reshape(k, -1).sum(axis=1) / (2.0 * reg_c))
    p *= sample_w[:, None, None]
    grad = np.empty_like(wb)
    grad[:, :d * C] = ((X.T @ p.reshape(n, k * C)).reshape(d, k, C).transpose(1, 0, 2)
                       + W / reg_c[:, None, None]).reshape(k, d * C)
    grad[:, d * C:] = p.sum(axis=0)
    return obj, grad


def svm_objective(wb, X, Y_signed, s_norm, lam):
    """One-vs-rest squared hinge, one class per problem; bias free.

    Row j of ``wb`` (k x (d + 1)) packs class j's weights w_j then its bias
    b_j; row j of ``Y_signed`` (+1/-1) and of ``s_norm`` (k x n, each row
    summing to 1) and ``lam[j]`` are its targets, weights and lambda.
    Problem j is sum_i s_ji max(0, 1 - y_ji z_ji)^2 + (lambda_j / 2)||w_j||^2
    with z_j = X w_j + b_j, and the one-vs-rest loss is their sum. Returns
    (objectives (k,), gradients k x (d + 1)).
    """
    W = wb[:, :-1]
    slack = np.maximum(0.0, 1.0 - Y_signed * (W @ X.T + wb[:, -1:]))
    obj = (s_norm * slack * slack).sum(axis=1) + 0.5 * lam * (W * W).sum(axis=1)
    dz = -2.0 * s_norm * Y_signed * slack
    grad = np.empty_like(wb)
    grad[:, :-1] = dz @ X + lam[:, None] * W
    grad[:, -1] = dz.sum(axis=1)
    return obj, grad


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _direction(g, pairs, r_inv, yy, sy, gamma):
    """-H g for every problem, H the L-BFGS inverse Hessian in its compact
    form H = gamma I + [S gamma Y] M [S gamma Y]' (Byrd, Nocedal & Schnabel
    1994): H g = gamma g + S v - gamma Y u, where u = R^-1 S'g and
    v = R^-T ((D + gamma Y'Y) u - gamma Y'g). Per problem, ``pairs`` holds
    S then Y (2m x p), ``r_inv`` R^-1, ``yy`` Y'Y and ``sy`` D's diagonal,
    all indexed by history slot; an empty slot is zero throughout."""
    m = sy.shape[1]
    sg_yg = (pairs @ g[:, :, None])[:, :, 0]
    u = (r_inv @ sg_yg[:, :m, None])[:, :, 0]
    gam = gamma[:, None]
    w = sy * u + gam * ((yy @ u[:, :, None])[:, :, 0] - sg_yg[:, m:])
    v = (w[:, None, :] @ r_inv)[:, 0]
    coef = np.concatenate([v, -gam * u], axis=1)
    return -(gam * g + (coef[:, None, :] @ pairs)[:, 0])


def _store_pairs(q, s, y, sy_new, pairs, r_inv, yy, sy):
    """Put every problem's new pair (s, y) in history slot ``q``, in place,
    or empty the slot where s'y is too small: such a pair would make H
    indefinite. With R upper triangular in history order, the slot's old
    pair is the oldest, and zeroing its row and column of R^-1 leaves the
    inverse for the pairs that remain; the new pair, the newest, adds one
    column and D one entry."""
    m = sy.shape[1]
    keep = sy_new > _EPS * _rowdot(y, y)
    rho = np.where(keep, sy_new, 1.0)
    pairs[:, q], pairs[:, m + q] = s * keep[:, None], y * keep[:, None]
    r_inv[:, q, :] = r_inv[:, :, q] = 0.0
    prods = (pairs @ pairs[:, m + q, :, None])[:, :, 0]  # S'y then Y'y
    r_inv[:, :, q] = -(r_inv @ prods[:, :m, None])[:, :, 0] / rho[:, None]
    r_inv[:, q, q] = keep / rho
    yy[:, q, :] = yy[:, :, q] = prods[:, m:]
    sy[:, q] = keep * sy_new
    return keep, prods[:, m + q]


def _wolfe_steps(objective, ids, x, f, g, d, t):
    """One line search per problem along its direction ``d`` from the trial
    steps ``t``, in lockstep: each trial evaluates every problem still
    searching in one objective call. A step that meets the weak Wolfe
    conditions or the approximate Wolfe test (module docstring) is taken; a
    rejected one is bisected when too long and doubled when too short.
    Returns (x, f, g, found): each problem's accepted point, or its start
    where ``d`` is not a descent direction or no step was found in
    ``LINE_SEARCH_TRIALS`` evaluations."""
    gd, t = _rowdot(g, d), t.copy()
    floor = f + LBFGS_FTOL * np.maximum(np.abs(f), 1.0)
    x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
    found = np.zeros(f.size, dtype=bool)
    lo, hi = np.zeros(f.size), np.full(f.size, np.inf)
    todo = np.flatnonzero(gd < 0.0)
    for _ in range(LINE_SEARCH_TRIALS):
        if todo.size == 0:
            break
        everyone = todo.size == f.size
        at = slice(None) if everyone else todo  # views while all search
        xt = x[at] + t[at, None] * d[at]
        ft, gt = objective(xt, ids[at])
        slope, slope0 = _rowdot(gt, d[at]), gd[at]
        decrease = ((ft <= f[at] + WOLFE_C1 * t[at] * slope0)  # False if NaN
                    | ((ft <= floor[at])
                       & (slope <= (2.0 * WOLFE_C1 - 1.0) * slope0)))
        short = decrease & (slope < WOLFE_C2 * slope0)
        ok = decrease & ~short
        if everyone and ok.all():
            return xt, ft, gt, ok
        done = todo[ok]
        x_new[done], f_new[done], g_new[done] = xt[ok], ft[ok], gt[ok]
        found[done] = True
        hi[todo[~decrease]] = t[todo[~decrease]]
        lo[todo[short]] = t[todo[short]]
        todo = todo[~ok]
        t[todo] = np.where(hi[todo] < np.inf, 0.5 * (lo[todo] + hi[todo]),
                           2.0 * t[todo])
    return x_new, f_new, g_new, found


def _minimize_lbfgs(objective, x0):
    """Minimize G independent problems in lockstep by L-BFGS.

    Row j of ``x0`` (G x p) is problem j's start, and ``objective(x, ids)``
    returns the values (k,) and gradients (k x p) of the problems ``ids``
    (ascending) at the rows of ``x``. Returns (x, iterations, converged),
    one row or entry per problem; see the module docstring for the stopping
    rules. Iteration i stores its pair in history slot (i - 1) mod
    ``LBFGS_HISTORY`` of every problem, and the batch is compacted only on
    rounds where a problem leaves.
    """
    x_out = np.array(x0, dtype=np.float64)
    G, p = x_out.shape
    m = LBFGS_HISTORY
    iterations = np.zeros(G, dtype=np.int64)
    converged = np.zeros(G, dtype=bool)
    ids, x = np.arange(G), x_out.copy()
    f, g = objective(x, ids)
    pairs = np.zeros((G, 2 * m, p))  # each slot's s, then each slot's y
    r_inv, yy, sy = np.zeros((G, m, m)), np.zeros((G, m, m)), np.zeros((G, m))
    gamma = np.ones(G)
    t = 1.0 / np.maximum(1.0, np.sqrt(_rowdot(g, g)))
    leave = np.abs(g).max(axis=1) <= LBFGS_GTOL
    converged[leave] = True
    for it in range(1, LBFGS_MAX_ITER + 1):
        if leave.any():
            x_out[ids[leave]] = x[leave]
            stay = np.flatnonzero(~leave)
            for row, j in enumerate(stay):  # in place: no second history
                pairs[row] = pairs[j]
            pairs = pairs[:stay.size]
            ids, x, f, g, t, r_inv, yy, sy, gamma = (
                a[stay] for a in (ids, x, f, g, t, r_inv, yy, sy, gamma))
        if ids.size == 0:
            break
        d = _direction(g, pairs, r_inv, yy, sy, gamma)
        x_new, f_new, g_new, found = _wolfe_steps(objective, ids, x, f, g, d, t)
        s, y = x_new - x, g_new - g
        sy_new = _rowdot(s, y)
        keep, yy_new = _store_pairs((it - 1) % m, s, y, sy_new, pairs, r_inv,
                                    yy, sy)
        gamma[keep] = sy_new[keep] / yy_new[keep]
        f_old, x, f, g, t = f, x_new, f_new, g_new, np.ones(ids.size)
        stopped = found & ((np.abs(g).max(axis=1) <= LBFGS_GTOL)
                           | (f_old - f <= LBFGS_FTOL * np.maximum(
                               np.maximum(np.abs(f_old), np.abs(f)), 1.0)))
        leave = stopped | ~found
        iterations[ids[leave]] = np.where(found[leave], it, it - 1)
        converged[ids[stopped]] = True
    else:
        x_out[ids] = x  # the last round's leavers and the capped problems
        iterations[ids[~leave]] = LBFGS_MAX_ITER
    return x_out, iterations, converged


def fit_logreg(data, reg_c, num_classes):
    """Minimize ``logreg_objective`` from zero for every (X, y, sample_w) of
    ``data`` at every C_reg of ``reg_c``, all in one batch. Each objective
    call evaluates one product pair per (X, y, sample_w) with a problem
    still active. Returns (W, b, converged), data-major: W is G x d x C,
    b is G x C."""
    reg_c = np.asarray(reg_c, dtype=np.float64)
    d = data[0][0].shape[1]
    p = d * num_classes + num_classes

    def objective(wb, ids):
        f, g = np.empty(ids.size), np.empty((ids.size, p))
        cuts = np.searchsorted(ids, np.arange(len(data) + 1) * reg_c.size)
        for (X, y, sample_w), lo, hi in zip(data, cuts, cuts[1:]):
            if lo < hi:
                f[lo:hi], g[lo:hi] = logreg_objective(
                    wb[lo:hi], X, y, sample_w, reg_c[ids[lo:hi] % reg_c.size],
                    num_classes)
        return f, g

    wb, _, converged = _minimize_lbfgs(objective,
                                       np.zeros((len(data) * reg_c.size, p)))
    return (wb[:, :d * num_classes].reshape(-1, d, num_classes),
            wb[:, d * num_classes:], converged)


def _check_visible(x_norm, y, visible_rows, num_classes):
    """The prelude ``fit_baseline`` and the trainers share; returns the
    checked (x_norm, y as class ids, visible_rows). A label that is not a
    class id is reported first, then an empty or single-class visible set,
    then a non-finite feature."""
    y = check_labels(y, num_classes)
    visible_rows = np.asarray(visible_rows)
    if visible_rows.size == 0:
        raise InputError("visible training set is empty")
    if np.unique(y[visible_rows]).size < 2:
        raise InputError("visible training set contains a single class")
    x_norm = np.asarray(x_norm, dtype=np.float64)
    check_finite(x_norm)
    return x_norm, y, visible_rows


def _select_and_refit(x_norm, grid_scores, failed, refit) -> LinearModel:
    """Refit at the best-scoring (C_reg, score) pair of ``grid_scores``, the
    first on a tie, by ``refit(i) -> (W, b, converged)``, and predict every
    row of ``x_norm``; ``failed`` holds the C_reg values whose selection fits
    did not converge."""
    best = max(range(len(grid_scores)), key=lambda i: grid_scores[i][1])
    selected = grid_scores[best][0]
    W, b, converged = refit(best)
    if not converged:
        failed.add(selected)
    return LinearModel(
        weights=W, bias=b, predictions=_argmax_scores(x_norm, W, b),
        selected_reg=selected, grid_scores=tuple(grid_scores),
        unconverged=tuple(c for c, _ in grid_scores if c in failed))


def train_logreg(x_norm, y, visible_rows, seed: int = 0, *,
                 num_classes: int) -> LinearModel:
    """Select C_reg by stratified k-fold CV macro-F1, then refit on all visible rows.

    Folds shrink to the smallest per-class count when classes are scarce;
    below 2 usable folds there is nothing to cross-validate and we fail fast.
    """
    x_norm, y, visible_rows = _check_visible(x_norm, y, visible_rows, num_classes)

    counts = np.bincount(y[visible_rows], minlength=num_classes)
    folds_eff = min(LOGREG_FOLDS, int(counts[counts > 0].min()))
    if folds_eff < 2:
        raise InputError(
            "cross-validation needs every visible class to have at least 2 "
            f"examples; smallest has {int(counts[counts > 0].min())}"
        )

    folds = stratified_kfold(y, visible_rows, folds_eff,
                             np.random.default_rng(seed))
    # The held-out rows of folds 1, ..., F - 1, 0, then blocks 0 to F - 3 of
    # that list again: fold f's training rows are the rows from block f on,
    # a view, and its held-out rows are block f - 1.
    blocks = [val_idx for _, val_idx in folds[1:] + folds[:1]]
    X_rows, y_rows = (a[np.concatenate(blocks + blocks[:-2])] for a in (x_norm, y))
    start = np.cumsum([0] + [rows.size for rows in blocks])
    data, val_rows = [], []
    for f, (train_idx, val_idx) in enumerate(folds):
        held = start[(f - 1) % len(folds)]
        val_rows.append(slice(held, held + val_idx.size))
        tr = slice(start[f], start[f] + train_idx.size)
        data.append((X_rows[tr], y_rows[tr],
                     class_weights(y, train_idx, num_classes)[y_rows[tr]]))
    W, b, converged = fit_logreg(data, LOGREG_C_GRID, num_classes)
    n_c = len(LOGREG_C_GRID)
    failed = {LOGREG_C_GRID[i % n_c] for i in np.flatnonzero(~converged)}
    grid_scores = [(reg_c, float(np.mean([
        score(_argmax_scores(X_rows[rows], W[f * n_c + j], b[f * n_c + j]),
              y_rows[rows], num_classes).macro_f1
        for f, rows in enumerate(val_rows)])))
        for j, reg_c in enumerate(LOGREG_C_GRID)]

    visible = slice(0, visible_rows.size)  # every fold's held-out rows
    sw = class_weights(y, visible_rows, num_classes)[y_rows[visible]]

    def refit(i):
        W, b, converged = fit_logreg([(X_rows[visible], y_rows[visible], sw)],
                                     LOGREG_C_GRID[i:i + 1], num_classes)
        return W[0], b[0], converged[0]
    return _select_and_refit(x_norm, grid_scores, failed, refit)


def _fit_svm_ovr(X, Y_signed, s_norm, lam, wb0):
    """Minimize ``svm_objective`` from ``wb0`` (classes x (d + 1)), each
    class one problem of a batch; returns (wb, converged), converged when
    every class has."""
    wb, _, converged = _minimize_lbfgs(
        lambda wb, ids: svm_objective(wb, X, Y_signed[ids], s_norm[ids],
                                      lam[ids]), wb0)
    return wb, bool(converged.all())


def train_svm(x_norm, y, visible_rows, seed: int = 0, *,
              num_classes: int) -> LinearModel:
    """Grid search on a stratified holdout by macro-F1; refit on all visible rows."""
    x_norm, y, visible_rows = _check_visible(x_norm, y, visible_rows, num_classes)

    fit_idx, val_idx = carve_validation(y, visible_rows, seed)
    if val_idx.size == 0:
        raise InputError("too few visible examples to carve an SVM validation split")

    def problem(idx):
        """(targets, weights, sums) of the rows ``idx``: class-major +1/-1
        targets, balanced weights over each class's sum, and those sums,
        from which lambda_c = 1 / (C_reg * sum_c)."""
        Y = -np.ones((idx.size, num_classes))
        Y[np.arange(idx.size), y[idx]] = 1.0
        pos = Y > 0
        n_pos = pos.sum(axis=0)
        n_neg = idx.size - n_pos
        s = np.where(pos, idx.size / (2.0 * np.maximum(n_pos, 1)),
                     idx.size / (2.0 * np.maximum(n_neg, 1)))
        col_tot = s.sum(axis=0)
        return Y.T.copy(), (s / col_tot).T.copy(), col_tot

    Y_fit, s_fit, tot_fit = problem(fit_idx)
    X_fit, X_val, y_val = x_norm[fit_idx], x_norm[val_idx], y[val_idx]
    wb = np.zeros((num_classes, x_norm.shape[1] + 1))
    fits, grid_scores, failed = [], [], set()
    # SVM_C_GRID ascends; each fit starts at the previous C's optimum
    for reg_c in SVM_C_GRID:
        wb, converged = _fit_svm_ovr(X_fit, Y_fit, s_fit,
                                     1.0 / (reg_c * tot_fit), wb)
        if not converged:
            failed.add(reg_c)
        fits.append(wb)
        pred = _argmax_scores(X_val, wb[:, :-1].T, wb[:, -1])
        grid_scores.append((reg_c, score(pred, y_val, num_classes).macro_f1))

    del X_fit, X_val  # release the split's copies before the refit's own
    Y_all, s_all, tot_all = problem(visible_rows)

    def refit(i):
        wb, converged = _fit_svm_ovr(x_norm[visible_rows], Y_all, s_all,
                                     1.0 / (SVM_C_GRID[i] * tot_all), fits[i])
        return wb[:, :-1].T.copy(), wb[:, -1].copy(), converged
    return _select_and_refit(x_norm, grid_scores, failed, refit)


def fit_baseline(model: str, x, y, visible_rows, seed: int, num_classes):
    """``model``, "logreg" or "svm", fitted on x standardized on the visible
    rows; any other model is an InputError. The trainer is looked up at call
    time, so a patched one runs."""
    trainers = {"logreg": train_logreg, "svm": train_svm}
    if model not in trainers:
        raise InputError(f"unknown baseline {model!r}; choose from logreg, svm")
    # before a bad entry spreads to its column's scaling
    x, y, visible_rows = _check_visible(x, y, visible_rows, num_classes)
    sub = x[visible_rows]
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)  # population std
    del sub  # release the visible rows' copy before training
    x_norm = (x - mean) / np.where(std == 0, 1.0, std)
    return trainers[model](x_norm, y, visible_rows, seed=seed,
                           num_classes=num_classes)
