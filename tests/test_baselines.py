import warnings

import numpy as np
import pytest

from gcndiag import baselines
from gcndiag import (InputError, LinearModel, ShapeError, fit_baseline,
                     linear_predict, train_logreg, train_svm)
from gcndiag.baselines import (LOGREG_C_GRID, SVM_C_GRID, _fit_svm_ovr,
                               fit_logreg, logreg_objective, stratified_kfold,
                               svm_objective)
from gcndiag.gcn import class_weights


def blobs(seed=0, n_per=40, gap=4.0, d=3, classes=2):
    """Well-separated Gaussian blobs; linearly separable for gap >> 1."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(classes):
        center = np.zeros(d)
        center[c % d] = gap * (1 + c // d)
        xs.append(rng.standard_normal((n_per, d)) + center)
        ys.append(np.full(n_per, c))
    return np.vstack(xs), np.concatenate(ys)


def standardized(x, visible_rows):
    """``x`` standardized by hand on ``visible_rows``: population std, and a
    constant column's std taken as 1."""
    mean = x[visible_rows].mean(axis=0)
    std = x[visible_rows].std(axis=0)
    return (x - mean) / np.where(std == 0, 1.0, std)


def test_scaler_population_std():
    # visible [1, 3, 5, 7]: mean 4 and population std sqrt(5), not the
    # sample std sqrt(20/3); the hidden 9 is scaled by the same numbers, and
    # the constant column's std falls back to 1
    x = np.column_stack([[1.0, 3.0, 5.0, 7.0, 9.0], np.full(5, 5.0)])
    visible = [0, 1, 2, 3]
    _, z = fit_baseline("logreg", x, np.array([0, 0, 1, 1, 1]), visible,
                        seed=0, num_classes=2)
    assert np.allclose(z[:, 0], np.array([-3.0, -1.0, 1.0, 3.0, 5.0]) / np.sqrt(5.0))
    assert np.array_equal(z[:, 1], np.zeros(5))
    assert z[visible, 0].mean() == pytest.approx(0.0)
    assert z[visible, 0].std() == pytest.approx(1.0)


def test_scaler_uses_only_visible_rows():
    X, y = blobs(seed=11, gap=3.0)
    x = np.column_stack([X, np.full(y.size, 5.0)])
    x[-1] = [100.0, -100.0, 100.0, 5.0]  # a hidden row must not move the stats
    visible = np.arange(y.size - 1)
    _, x_norm = fit_baseline("logreg", x, y, visible, seed=0, num_classes=2)
    assert np.array_equal(x_norm[:, 3], np.zeros(y.size))
    # zero mean and unit population std over the visible rows only
    assert np.allclose(x_norm[visible, :3].mean(axis=0), 0.0)
    assert np.allclose(x_norm[visible, :3].std(axis=0), 1.0)
    assert np.array_equal(x_norm, standardized(x, visible))


def test_fit_baseline_rejects_an_empty_visible_set():
    X, y = blobs(seed=11)
    with pytest.raises(InputError, match="^visible training set is empty$"):
        fit_baseline("svm", X, y, np.array([], dtype=int), seed=0, num_classes=2)



@pytest.mark.parametrize("model", ["lr", "SVM", "gcn"])
def test_fit_baseline_rejects_an_unknown_model(model):
    X, y = blobs(seed=11)
    with pytest.raises(InputError, match=f"unknown baseline {model!r}; "
                                         "choose from logreg, svm"):
        fit_baseline(model, X, y, np.arange(y.size), seed=0, num_classes=2)

@pytest.mark.parametrize("model, trainer", [("logreg", train_logreg),
                                            ("svm", train_svm)])
def test_fit_baseline_trains_on_the_standardized_matrix(model, trainer):
    X, y = blobs(seed=12, gap=2.0, classes=3, d=4)
    X = 3.0 * X + 7.0
    visible = np.arange(0, y.size, 2)
    fitted, x_norm = fit_baseline(model, X, y, visible, seed=4, num_classes=3)
    by_hand = trainer(standardized(X, visible), y, visible, seed=4,
                      num_classes=3)
    assert np.array_equal(fitted.weights, by_hand.weights)
    assert np.array_equal(fitted.bias, by_hand.bias)
    assert fitted.selected_reg == by_hand.selected_reg


def test_fit_baseline_runs_the_trainer_patched_in(monkeypatch):
    calls = []

    def fake_svm(x_norm, y, visible_rows, seed, num_classes):
        calls.append((x_norm, seed, num_classes))
        return "patched"

    monkeypatch.setattr(baselines, "train_svm", fake_svm)
    X, y = blobs(seed=13)
    fitted, x_norm = fit_baseline("svm", X, y, np.arange(y.size), seed=6,
                                  num_classes=2)
    assert fitted == "patched"
    assert len(calls) == 1 and calls[0][0] is x_norm and calls[0][1:] == (6, 2)


def test_balanced_weights_sum_to_n():
    y = np.array([0, 0, 0, 1])
    w = class_weights(y, np.arange(4), 2)[y]
    assert np.allclose(w, [2 / 3, 2 / 3, 2 / 3, 2.0])
    assert w.sum() == pytest.approx(4.0)


def test_logreg_objective_hand_value():
    # zero weights: every class equally likely, CE = log C per unit weight
    X = np.array([[1.0, 2.0]])
    wb = np.zeros(2 * 3 + 3)
    (obj,), (grad,) = logreg_objective(wb[None], X, np.array([0]), np.ones(1),
                                       [1.0], 3)
    assert obj == pytest.approx(np.log(3.0))
    assert grad.shape == (9,)


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, size=12)
    sw = class_weights(y, np.arange(12), 3)[y]
    wb = rng.standard_normal(4 * 3 + 3) * 0.3
    (_,), (grad,) = logreg_objective(wb[None], X, y, sw, [0.5], 3)
    fd = np.zeros_like(wb)
    eps = 1e-6
    for i in range(wb.size):
        up, down = wb.copy(), wb.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (logreg_objective(up[None], X, y, sw, [0.5], 3)[0][0]
                 - logreg_objective(down[None], X, y, sw, [0.5], 3)[0][0]) / (2 * eps)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_fit_logreg_reaches_stationary_point():
    X, y = blobs(seed=1, gap=2.0)
    sw = class_weights(y, np.arange(y.size), 2)[y]
    (W,), (b,), (converged,) = fit_logreg([(X, y, sw)], [1.0], 2)
    wb = np.concatenate([W.ravel(), b])
    (_,), (grad,) = logreg_objective(wb[None], X, y, sw, [1.0], 2)
    assert converged
    assert np.abs(grad).max() < 1e-4


def signed_targets(y, num_classes):
    """+1/-1 one-vs-rest targets and per-class balanced weights (n x C)."""
    Y = np.where(y[:, None] == np.arange(num_classes), 1.0, -1.0)
    n_pos = (Y > 0).sum(axis=0)
    s = np.where(Y > 0, y.size / (2.0 * n_pos), y.size / (2.0 * (y.size - n_pos)))
    return Y, s


def svm_terms(Y, s, reg_c):
    """The class-major (targets, weights, lambda) of ``svm_objective`` from
    n x C targets and weights, as ``train_svm`` builds them: the weights
    over their column sums, and lambda_c = 1 / (C_reg * that sum)."""
    col_tot = s.sum(axis=0)
    return Y.T.copy(), (s / col_tot).T.copy(), 1.0 / (reg_c * col_tot)


def test_svm_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, size=12)
    Y, s = signed_targets(y, 3)
    # redraw until every margin sits clear of the hinge kink at 1, where the
    # second derivative jumps; both sides of the kink must still occur
    while True:
        wb = rng.standard_normal((3, 4 + 1)) * 0.5  # class c's w_c, then b_c
        margins = Y * (X @ wb[:, :4].T + wb[:, 4])
        if (np.abs(1.0 - margins).min() > 1e-3 and (margins < 1).any()
                and (margins > 1).any()):
            break
    terms = svm_terms(Y, s, 0.5)
    _, grad = svm_objective(wb, X, *terms)
    fd = np.zeros_like(wb)
    eps = 1e-6
    for i in np.ndindex(wb.shape):
        up, down = wb.copy(), wb.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (svm_objective(up, X, *terms)[0].sum()
                 - svm_objective(down, X, *terms)[0].sum()) / (2 * eps)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_fit_svm_reaches_stationary_point():
    X, y = blobs(seed=1, gap=2.0)
    terms = svm_terms(*signed_targets(y, 2), 1.0)
    wb, converged = _fit_svm_ovr(X, *terms, np.zeros((2, 4)))
    _, grad = svm_objective(wb, X, *terms)
    assert converged
    assert np.abs(grad).max() < 1e-4
    # strictly convex: a warm start far from the optimum ends at the same point
    rng = np.random.default_rng(17)
    start = np.column_stack([3.0 * rng.standard_normal((3, 2)).T,
                             3.0 * rng.standard_normal(2)])
    wb2, converged = _fit_svm_ovr(X, *terms, start)
    assert converged
    assert np.allclose(wb2, wb, atol=1e-5)


def oracle_problems():
    """The 40 random weighted logreg and SVM problems of the L-BFGS-B oracle,
    as (objective of a flat vector -> (value, gradient), start); an SVM
    problem is every class at once."""
    rng = np.random.default_rng(31)
    problems = []
    for case in range(40):
        n, d, C = (int(v) for v in rng.integers([20, 1, 2], [120, 41, 11]))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, C, size=n)
        reg_c = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        if case % 2:
            Y, s = signed_targets(y, C)
            s = s * rng.uniform(0.2, 3.0, size=(n, C))

            def objective(v, X=X, terms=svm_terms(Y, s, reg_c), shape=(C, d + 1)):
                values, grads = svm_objective(v.reshape(shape), X, *terms)
                return float(values.sum()), grads.ravel()
        else:
            sw = rng.uniform(0.2, 3.0, size=n)

            def objective(v, X=X, y=y, sw=sw, reg_c=reg_c, C=C):
                values, grads = logreg_objective(v[None], X, y, sw, [reg_c], C)
                return float(values[0]), grads[0]
        problems.append((objective, np.zeros(d * C + C)))
    return problems


def batched(problems):
    """One batch objective over ``problems``, (flat objective, start) pairs,
    and its G x p start: each problem fills the front of a row zero-padded to
    the widest start, and its padding keeps a zero gradient."""
    width = max(x0.size for _, x0 in problems)

    def objective(x, ids):
        values, grads = np.empty(ids.size), np.zeros((ids.size, width))
        for row, i in enumerate(ids):
            fn, x0 = problems[i]
            values[row], grads[row, :x0.size] = fn(x[row, :x0.size])
        return values, grads

    return objective, np.array([np.pad(x0, (0, width - x0.size))
                                for _, x0 in problems])


def lbfgsb_optimum(fn, x0):
    """scipy's L-BFGS-B optimum of ``fn`` with the package's tolerances."""
    from scipy.optimize import minimize  # oracle only; the package avoids it
    ref = minimize(fn, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": baselines.LBFGS_MAX_ITER,
                            "gtol": baselines.LBFGS_GTOL, "ftol": 1e-14})
    assert ref.success
    return ref.fun


def test_lbfgs_matches_scipy_lbfgsb_on_random_problems():
    """The in-package L-BFGS reaches the optimum scipy's L-BFGS-B reaches
    with the same tolerances, on weighted logreg and SVM problems."""
    for fn, x0 in oracle_problems():
        (x,), _, (converged,) = baselines._minimize_lbfgs(*batched([(fn, x0)]))
        assert converged
        assert fn(x)[0] == pytest.approx(lbfgsb_optimum(fn, x0), rel=1e-8)


def test_lbfgs_matches_scipy_lbfgsb_as_one_batch():
    """The 40 oracle problems solved in one batch of different widths each
    reach scipy's optimum, to the same bound as one at a time."""
    problems = oracle_problems()
    x, iterations, converged = baselines._minimize_lbfgs(*batched(problems))
    assert converged.all()
    assert len(set(iterations.tolist())) > 1  # they left on different rounds
    for (fn, x0), row in zip(problems, x):
        assert fn(row[:x0.size])[0] == pytest.approx(lbfgsb_optimum(fn, x0),
                                                     rel=1e-8)
        assert not row[x0.size:].any()


def test_batched_logreg_fit_matches_its_batch_of_one():
    """Every (data, C_reg) problem of one ``fit_logreg`` batch reaches the
    objective its fit alone reaches, to 1e-8 relative, though the batch's
    wide products round differently."""
    data = []
    for seed, n in ((20, 70), (21, 90)):
        X, y = blobs(seed=seed, n_per=n // 3, gap=1.5, d=5, classes=3)
        data.append((X, y, class_weights(y, np.arange(y.size), 3)[y]))
    W, b, converged = fit_logreg(data, LOGREG_C_GRID, 3)
    assert converged.all()
    for i, (reg_c, (X, y, sw)) in enumerate(
            (c, dat) for dat in data for c in LOGREG_C_GRID):
        (W1,), (b1,), (alone,) = fit_logreg([(X, y, sw)], [reg_c], 3)
        assert alone

        def value(W, b):
            wb = np.concatenate([W.ravel(), b])[None]
            return logreg_objective(wb, X, y, sw, [reg_c], 3)[0][0]
        assert value(W[i], b[i]) == pytest.approx(value(W1, b1), rel=1e-8)


def test_lbfgs_compaction_leaves_each_problem_its_own_fit():
    """Problems that stop on different rounds, one with a wrong-sign
    gradient, each end as they end alone: the batch compacts around those
    that leave without disturbing the rest."""
    rng = np.random.default_rng(40)
    quadratics = []
    for cond in (1.0, 10.0, 100.0, 1e3):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        quadratics.append(((q * np.geomspace(1.0, cond, 6)) @ q.T,
                           rng.standard_normal(6)))

    def objective(x, ids):
        values, grads = np.empty(ids.size), np.empty_like(x)
        for row, i in enumerate(ids):
            if i == len(quadratics):  # a wrong-sign gradient: no descent
                values[row], grads[row] = x[row] @ x[row], -2.0 * x[row]
                continue
            A, c = quadratics[i]
            grads[row] = A @ x[row] - c
            values[row] = 0.5 * x[row] @ (A @ x[row]) - c @ x[row]
        return values, grads

    x0 = rng.standard_normal((len(quadratics) + 1, 6))
    x, iterations, converged = baselines._minimize_lbfgs(objective, x0)
    assert len(set(iterations[:-1].tolist())) == len(quadratics)
    assert converged[:-1].all() and not converged[-1]
    assert iterations[-1] == 0 and np.array_equal(x[-1], x0[-1])
    for i in range(len(quadratics)):
        def alone(x, ids, i=i):
            return objective(x, np.array([i]))
        (xi,), (iters,), (conv,) = baselines._minimize_lbfgs(alone, x0[i:i + 1])
        assert np.array_equal(x[i], xi)
        assert (iterations[i], converged[i]) == (iters, conv)


def test_per_class_svm_fit_reaches_the_joint_optimum():
    """``_fit_svm_ovr`` fits each class as its own problem; the sum of their
    objectives reaches the optimum L-BFGS-B finds for all classes at once."""
    rng = np.random.default_rng(41)
    for _ in range(8):
        n, d, C = (int(v) for v in rng.integers([30, 2, 2], [150, 20, 8]))
        X = rng.standard_normal((n, d)) + rng.uniform(0.0, 2.0)
        y = rng.integers(0, C, size=n)
        Y, s = signed_targets(y, C)
        reg_c = float(rng.choice([0.01, 1.0, 100.0]))
        terms = svm_terms(Y, s, reg_c)

        def joint(v):
            values, grads = svm_objective(v.reshape(C, d + 1), X, *terms)
            return float(values.sum()), grads.ravel()

        wb, converged = _fit_svm_ovr(X, *terms, np.zeros((C, d + 1)))
        assert converged
        at_fit = joint(wb.ravel())[0]
        assert at_fit == pytest.approx(
            lbfgsb_optimum(joint, np.zeros(C * (d + 1))), rel=1e-8)


def test_lbfgs_start_at_the_rounding_floor_converges():
    """A problem within rounding of its optimum converges by the approximate
    Wolfe test. Its gradient (1e-5) is above LBFGS_GTOL, but every value
    after the start rounds 3e-15 above the start's, more than the 5e-16
    decrease left: no step meets the sufficient-decrease condition, as when
    a batch's wider product rounds f differently from the start's."""
    calls = []

    def floor(x, ids):
        calls.append(1)
        values = 1.0 + 0.5e5 * (x * x).sum(axis=1)
        return values + (3e-15 if len(calls) > 1 else 0.0), 1e5 * x

    (x,), _, (converged,) = baselines._minimize_lbfgs(floor, np.full((1, 1), 1e-10))
    assert converged
    assert baselines.LBFGS_GTOL < 1e5 * abs(x[0]) < 1e-5


def test_lbfgs_line_search_failure_is_not_converged():
    def wrong_sign_gradient(x, ids):
        return (x * x).sum(axis=1), -2.0 * x

    (x,), (iterations,), (converged,) = baselines._minimize_lbfgs(
        wrong_sign_gradient, np.ones((1, 3)))
    assert not converged
    assert iterations == 0 and np.array_equal(x, np.ones(3))


@pytest.mark.parametrize("trainer, grid", [(train_logreg, LOGREG_C_GRID),
                                           (train_svm, SVM_C_GRID)])
def test_trainers_report_unconverged_fits(monkeypatch, trainer, grid):
    X, y = blobs(seed=10, gap=2.0)
    model = trainer(X, y, np.arange(y.size), seed=0, num_classes=2)
    assert model.unconverged == ()
    monkeypatch.setattr(baselines, "LBFGS_MAX_ITER", 2)
    capped = trainer(X, y, np.arange(y.size), seed=0, num_classes=2)
    assert capped.unconverged == grid


def test_stratified_kfold_partitions():
    rng = np.random.default_rng(14)
    y = np.array([0] * 10 + [1] * 7 + [2] * 5)
    idx = np.arange(y.size)
    folds = stratified_kfold(y, idx, 4, rng)
    assert len(folds) == 4
    all_val = np.concatenate([v for _, v in folds])
    assert sorted(all_val) == list(idx)
    for train, val in folds:
        assert np.intersect1d(train, val).size == 0
        assert np.union1d(train, val).size == idx.size
        counts = np.bincount(y[val], minlength=3)
        # per-class fold sizes differ by at most one
        assert counts[0] in (2, 3) and counts[1] in (1, 2) and counts[2] in (1, 2)


def test_train_logreg_separable():
    X, y = blobs(seed=2, gap=5.0, classes=3, d=4)
    model = train_logreg(X, y, np.arange(y.size), seed=0, num_classes=3)
    assert (linear_predict(model, X) == y).all()
    assert model.selected_reg in LOGREG_C_GRID
    assert len(model.grid_scores) == len(LOGREG_C_GRID)


def test_train_logreg_tie_selects_smallest_c():
    # wide-margin blobs: every C value cross-validates perfectly, so the
    # tie rule picks the first (smallest) grid entry
    X, y = blobs(seed=3, gap=30.0)
    model = train_logreg(X, y, np.arange(y.size), seed=0, num_classes=2)
    scores = [s for _, s in model.grid_scores]
    assert max(scores) == scores[0]
    assert model.selected_reg == LOGREG_C_GRID[0]


def test_train_logreg_fold_reduction_and_errors():
    X, y = blobs(seed=4, n_per=3)  # 3 per class -> folds shrink to 3
    model = train_logreg(X, y, np.arange(y.size), seed=0, num_classes=2)
    assert model.selected_reg in LOGREG_C_GRID

    X2 = np.vstack([X, [[9.0, 9.0, 9.0]]])
    y2 = np.concatenate([y, [2]])  # class 2 has a single member
    with pytest.raises(InputError):
        train_logreg(X2, y2, np.arange(y2.size), seed=0, num_classes=3)
    with pytest.raises(InputError):
        train_logreg(X, np.zeros_like(y), np.arange(y.size), seed=0,
                     num_classes=1)
    with pytest.raises(InputError):
        train_logreg(X, y, np.array([], dtype=int), seed=0, num_classes=2)


def test_train_logreg_deterministic():
    X, y = blobs(seed=5, gap=2.0)
    m1 = train_logreg(X, y, np.arange(y.size), seed=9, num_classes=2)
    m2 = train_logreg(X, y, np.arange(y.size), seed=9, num_classes=2)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.selected_reg == m2.selected_reg


def reference_svm_objective(W, b, X, y, reg_c, num_classes):
    """Reference one-vs-rest squared-hinge objective, written independently
    of the library, with the weights ``train_svm`` gives its final refit."""
    n = X.shape[0]
    total = 0.0
    for c in range(num_classes):
        sign = np.where(y == c, 1.0, -1.0)
        n_pos = (sign > 0).sum()
        n_neg = n - n_pos
        s = np.where(sign > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
        s = s / s.sum()
        lam = 1.0 / (reg_c * n)
        margins = sign * (X @ W[:, c] + b[c])
        total += 0.5 * lam * (W[:, c] ** 2).sum()
        total += (s * np.maximum(0.0, 1.0 - margins) ** 2).sum()
    return total


def test_train_svm_improves_reference_objective():
    X, y = blobs(seed=6, gap=3.0)
    model = train_svm(X, y, np.arange(y.size), seed=0, num_classes=2)
    at_zero = reference_svm_objective(np.zeros((3, 2)), np.zeros(2), X, y,
                                      model.selected_reg, 2)
    at_fit = reference_svm_objective(model.weights, model.bias, X, y,
                                     model.selected_reg, 2)
    assert at_fit < at_zero
    Y, s = signed_targets(y, 2)
    wb = np.column_stack([model.weights.T, model.bias])
    assert svm_objective(wb, X, *svm_terms(Y, s, model.selected_reg))[0].sum() \
        == pytest.approx(at_fit, rel=1e-12)


def test_train_svm_separable():
    X, y = blobs(seed=7, gap=6.0, classes=3, d=4)
    model = train_svm(X, y, np.arange(y.size), seed=0, num_classes=3)
    assert (linear_predict(model, X) == y).all()
    assert model.selected_reg in SVM_C_GRID
    assert len(model.grid_scores) == len(SVM_C_GRID)


def test_train_svm_needs_room_for_holdout():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])  # one example per class: nothing left to hold out
    with pytest.raises(InputError):
        train_svm(X, y, np.arange(2), seed=0, num_classes=2)


def test_train_svm_deterministic():
    X, y = blobs(seed=8, gap=2.0)
    m1 = train_svm(X, y, np.arange(y.size), seed=3, num_classes=2)
    m2 = train_svm(X, y, np.arange(y.size), seed=3, num_classes=2)
    assert np.array_equal(m1.weights, m2.weights)


@pytest.mark.parametrize("trainer", [train_logreg, train_svm])
def test_linear_trainers_reject_non_finite_features(trainer):
    X, y = blobs(seed=9, gap=3.0)
    X[5, 2] = np.nan
    X[7, 0] = np.inf
    with pytest.raises(InputError, match="row 5, column 2") as exc:
        trainer(X, y, np.arange(y.size), seed=0, num_classes=2)
    assert exc.value.index == (5, 2)


@pytest.mark.parametrize("model", ["logreg", "svm"])
def test_fit_baseline_names_the_non_finite_entry_it_was_given(model):
    # a visible inf would make its column's mean and std non-finite, and
    # the standardized matrix would then be non-finite from row 0 on
    X, y = blobs(seed=9, gap=3.0)
    X[16, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="row 16, column 2") as exc:
            fit_baseline(model, X, y, np.arange(0, y.size, 2), seed=0,
                         num_classes=2)
    assert exc.value.index == (16, 2)


def test_linear_predict_tie_breaks_low():
    model = LinearModel(weights=np.zeros((2, 3)),
                        bias=np.zeros(3), selected_reg=1.0)
    pred = linear_predict(model, np.ones((4, 2)))
    assert (pred == 0).all()


def test_linear_predict_shape_check():
    model = LinearModel(weights=np.zeros((2, 2)),
                        bias=np.zeros(2), selected_reg=1.0)
    with pytest.raises(ShapeError):
        linear_predict(model, np.ones((4, 5)))


def test_imbalanced_classes_still_recovered():
    # 10:1 imbalance; balanced weighting should keep the minority visible
    rng = np.random.default_rng(15)
    X = np.vstack([rng.standard_normal((100, 2)),
                   rng.standard_normal((10, 2)) + 4.0])
    y = np.array([0] * 100 + [1] * 10)
    model = train_logreg(X, y, np.arange(110), seed=0, num_classes=2)
    pred = linear_predict(model, X)
    minority_recall = (pred[y == 1] == 1).mean()
    assert minority_recall >= 0.9
