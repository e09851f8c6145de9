import copy
import re
from dataclasses import replace

import numpy as np
import pytest

from gcndiag import (GcnConfig, GcnParams, InputError, ShapeError, build_graph,
                     gcn_forward, gcn_loss_and_grad, gcn_predict,
                     gradient_check, normalized_adjacency, train_gcn)
from gcndiag.gcn import (FD_STEP, GRADCHECK_MIN_MAGNITUDE, PATIENCE, Adam,
                         class_weights, finite_difference_grads,
                         glorot_uniform, init_params, softmax_cross_entropy,
                         _forward, _keep_mask, _propagates_input_first)
from gcndiag.baselines import logreg_objective
from gcndiag.graph import spmm
from gcndiag.protocol import make_split

from conftest import dense_normalized_adjacency


def tiny_instance():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = build_graph(edges, 4)
    a = normalized_adjacency(g)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 3))
    params = GcnParams(w0=rng.standard_normal((3, 5)) * 0.4,
                       w1=rng.standard_normal((5, 2)) * 0.4)
    y = np.array([0, 0, 1, 1])
    return edges, g, a, x, params, y


def test_forward_matches_dense_oracle():
    edges, g, a, x, params, _ = tiny_instance()
    dense_a = dense_normalized_adjacency(edges, 4)
    h = np.maximum(dense_a @ x @ params.w0, 0.0)
    want = dense_a @ h @ params.w1
    got = gcn_forward(params, a, x)
    assert np.allclose(got, want, atol=1e-12)


def test_loss_matches_manual_softmax():
    _, g, a, x, params, y = tiny_instance()
    labeled = np.array([0, 2, 3])
    w = class_weights(y, labeled, 2)
    loss, _ = gcn_loss_and_grad(params, a, x, y, labeled, w)

    z = gcn_forward(params, a, x)[labeled]
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    wl = w[y[labeled]]
    want = float((wl * -np.log(p[np.arange(3), y[labeled]])).sum() / wl.sum())
    assert loss == pytest.approx(want, rel=1e-12)


def test_unweighted_loss_is_plain_mean():
    _, g, a, x, params, y = tiny_instance()
    labeled = np.array([1, 2])
    loss, _ = gcn_loss_and_grad(params, a, x, y, labeled, np.ones(2))
    z = gcn_forward(params, a, x)[labeled]
    ce, _ = softmax_cross_entropy(z, y[labeled])
    assert loss == pytest.approx(float(ce.mean()), rel=1e-12)


def test_softmax_cross_entropy_shift_invariant():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 4))
    y = rng.integers(0, 4, size=6)
    ce, grad = softmax_cross_entropy(z, y)
    ce_shift, grad_shift = softmax_cross_entropy(z + 1000.0, y)
    assert np.allclose(ce_shift, ce, rtol=1e-9)
    assert np.allclose(grad_shift, grad, rtol=1e-9, atol=1e-12)
    ce_big, grad_big = softmax_cross_entropy(z + 1e4, y)
    assert np.isfinite(ce_big).all() and np.isfinite(grad_big).all()
    # the gradient of each row's cross-entropy sums to zero
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("C", [8, 17, 128, 129, 200, 257])
def test_softmax_cross_entropy_matches_row_wise_formulas(C):
    """Bit for bit, through each branch of the class-major sum: eight
    partial sums, a leftover tail, and the halving above 128 classes."""
    rng = np.random.default_rng(C)
    y = rng.integers(0, C, size=30)
    rows = np.arange(30)
    for shape in ((30, C), (30, 3, C)):
        z = rng.standard_normal(shape) * 4.0
        ce, grad = softmax_cross_entropy(z, y)
        shifted = z - z.max(axis=-1, keepdims=True)
        logsum = np.log(np.exp(shifted).sum(axis=-1))
        want = np.exp(shifted - logsum[..., None])
        want[rows, ..., y] -= 1.0
        assert np.array_equal(ce, logsum - shifted[rows, ..., y])
        assert np.array_equal(grad, want)


def _parent_logreg_objective(wb, X, y, sample_w, reg_c, num_classes):
    """The logistic objective as written inline before the shared loss."""
    d = X.shape[1]
    W = wb[: d * num_classes].reshape(d, num_classes)
    b = wb[d * num_classes:]
    z = X @ W + b
    z -= z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(X.shape[0])
    ce = logsum - z[rows, y]
    obj = float((sample_w * ce).sum() + (W * W).sum() / (2.0 * reg_c))
    p = np.exp(z - logsum[:, None])
    p[rows, y] -= 1.0
    p *= sample_w[:, None]
    grad_w = X.T @ p + W / reg_c
    grad_b = p.sum(axis=0)
    return obj, np.concatenate([grad_w.ravel(), grad_b])


def _mask_by_definition(rng, shape, keep):
    """The dropout mask as the gcn module defines it, written out with
    shifts: entry i is kept where bits 16k to 16k + 15 (k = i mod 4) of raw
    word i // 4 are below round(keep * 2^16)."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw((n + 3) // 4)
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    lanes = (words[:, None] >> shifts) & np.uint64(0xFFFF)
    return (lanes.ravel()[:n] < round(keep * 2**16)).reshape(shape)


def _parent_forward(params, a, x, dropout_rate, rng):
    """The training forward pass as written before the in-place epoch:
    float dropout masks, and the pre-activation kept beside the output."""
    keep = 1.0 - dropout_rate
    x_in = (x * (_mask_by_definition(rng, x.shape, keep) / keep)
            if dropout_rate else x)
    ax_in = spmm(a, x_in) if _propagates_input_first(*params.w0.shape) else None
    h_pre = spmm(a, x_in @ params.w0) if ax_in is None else ax_in @ params.w0
    h = np.maximum(h_pre, 0.0)
    mask1 = (_mask_by_definition(rng, h.shape, keep) / keep
             if dropout_rate else None)
    h_drop = h if mask1 is None else h * mask1
    z = spmm(a, h_drop @ params.w1)
    return z, x_in, ax_in, h_pre, mask1, h_drop


def _parent_gcn_loss_and_grad(params, a, x, y, labeled_idx, weights,
                              weight_decay, dropout_rate, rng):
    """The GCN loss and gradients as written inline before the shared loss,
    on the forward pass as written before the in-place epoch."""
    z, x_in, ax_in, h_pre, mask1, h_drop = _parent_forward(
        params, a, x, dropout_rate, rng)
    shifted = z[labeled_idx] - z[labeled_idx].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    wl = (np.ones(labeled_idx.size) if weights is None
          else np.asarray(weights)[y[labeled_idx]])
    wsum = wl.sum()
    rows = np.arange(labeled_idx.size)
    loss = float(-(wl * logp[rows, y[labeled_idx]]).sum() / wsum)
    dz_labeled = np.exp(logp)
    dz_labeled[rows, y[labeled_idx]] -= 1.0
    dz_labeled *= (wl / wsum)[:, None]
    dz = np.zeros_like(z)
    dz[labeled_idx] = dz_labeled
    g1 = spmm(a, dz)
    gw1 = h_drop.T @ g1 + weight_decay * params.w1
    dh = g1 @ params.w1.T
    if mask1 is not None:
        dh = dh * mask1
    dh_pre = dh * (h_pre > 0)
    if ax_in is None:
        gw0 = x_in.T @ spmm(a, dh_pre) + weight_decay * params.w0
    else:
        gw0 = ax_in.T @ dh_pre + weight_decay * params.w0
    return loss, GcnParams(gw0, gw1)


def test_shared_loss_bit_identical_to_inline_formulas():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n, d, C = (int(v) for v in rng.integers([3, 1, 2], [60, 12, 17]))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
        y = rng.integers(0, C, size=n)
        sw = rng.uniform(0.1, 3.0, size=n)
        wb = rng.standard_normal(d * C + C) * rng.uniform(0.01, 3.0)
        reg_c = float(rng.choice([1e-3, 1.0, 1e3]))
        values, grads = logreg_objective(wb[None], X, y, sw, [reg_c], C)
        got = values[0], grads[0]
        want = _parent_logreg_objective(wb, X, y, sw, reg_c, C)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    orders = set()
    for case in range(20):
        n, d, hidden, C = (int(v) for v in rng.integers([6, 1, 1, 2], [40, 9, 9, 17]))
        orders.add(_propagates_input_first(d, hidden))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.2]
        a = normalized_adjacency(build_graph(edges, n))
        x = rng.standard_normal((n, d))
        y = rng.integers(0, C, size=n)
        params = GcnParams(rng.standard_normal((d, hidden)),
                           rng.standard_normal((hidden, C)))
        labeled = np.sort(rng.choice(n, size=n // 2, replace=False))
        weights = class_weights(y, labeled, C) if case % 2 else np.ones(C)
        dropout = 0.5 if case % 4 < 2 else 0.0
        seed = int(rng.integers(2**32))
        got_loss, got = gcn_loss_and_grad(
            params, a, x, y, labeled, weights, weight_decay=1e-3,
            dropout_rate=dropout, rng=np.random.default_rng(seed))
        want_loss, want = _parent_gcn_loss_and_grad(
            params, a, x, y, labeled, weights, 1e-3, dropout,
            np.random.default_rng(seed))
        assert got_loss == want_loss
        assert np.array_equal(got.w0, want.w0)
        assert np.array_equal(got.w1, want.w1)
    assert orders == {True, False}  # both layer-0 orders were compared


def test_class_weights_hand_case():
    y = np.array([0, 0, 0, 1])
    w = class_weights(y, np.arange(4), 2)
    assert np.allclose(w, [4 / 6, 2.0])
    # absent class gets zero weight, not a division blowup
    w3 = class_weights(y, np.arange(4), 3)
    assert w3[2] == 0.0


def test_gradients_match_finite_differences():
    worst, count, largest = gradient_check(num_instances=10, seed=1)
    assert count == 10
    assert worst <= 1e-5
    assert largest < GRADCHECK_MIN_MAGNITUDE  # the floor forgives nothing here


@pytest.mark.parametrize("input_first", [True, False])
@pytest.mark.parametrize("wd", [0.0, 1e-3])
def test_gradients_match_finite_differences_with_dropout(wd, input_first):
    # Same instances, mixed tolerance and kink rule as gradient_check, but in
    # train mode: every loss evaluation gets a fresh generator with one seed,
    # so all evaluations draw the same dropout masks. The hidden width picks
    # the order layer 0 multiplies in: X first when d < 2h.
    from gcndiag.synth import SyntheticSpec, generate_graph
    rate, tolerance, floor = 0.5, 1e-5, 1e-8
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(8):
        C = int(rng.integers(2, 5))
        n = int(rng.integers(2 * C, 21))
        d = int(rng.integers(3, 9))  # wide enough that a dropped-out row is rare
        hidden = int(rng.integers(d // 2 + 1, d + 2) if input_first
                     else rng.integers(1, d // 2 + 1))
        assert _propagates_input_first(d, hidden) == input_first
        g, y = generate_graph(SyntheticSpec(
            n=n, num_classes=C, target_homophily=0.7,
            avg_degree=min(3.0, n - 1), dim=d, signal=1.0,
            seed=int(rng.integers(0, 2**32))))
        a = normalized_adjacency(g)
        for _ in range(100):
            x = rng.standard_normal((n, d))
            params = GcnParams(w0=rng.standard_normal((d, hidden)) * 0.5,
                               w1=rng.standard_normal((hidden, C)) * 0.5)
            mask_seed = int(rng.integers(0, 2**32))
            # the pre-activation under the input mask the loss will draw
            x_in = x * (_mask_by_definition(np.random.default_rng(mask_seed),
                                            x.shape, 1.0 - rate) / (1.0 - rate))
            h_pre = (spmm(a, x_in) @ params.w0 if input_first
                     else spmm(a, x_in @ params.w0))
            if np.abs(h_pre).min() > 100.0 * FD_STEP:
                break
        else:
            raise AssertionError("could not draw an instance clear of ReLU kinks")
        # the prediction is the input the loss sees, not a lucky guess
        assert np.array_equal(
            _forward(params, a, x, rate, np.random.default_rng(mask_seed))[1],
            x_in)
        labeled = rng.choice(n, size=max(2, n // 2), replace=False)
        weights = class_weights(y, labeled, C)

        def loss_and_grad(p, decay):
            return gcn_loss_and_grad(
                p, a, x, y, labeled, weights, weight_decay=decay,
                dropout_rate=rate, rng=np.random.default_rng(mask_seed))

        def objective(p):
            reg = 0.5 * wd * sum(float((m * m).sum()) for m in p.arrays())
            return loss_and_grad(p, 0.0)[0] + reg

        analytic = loss_and_grad(params, wd)[1]
        numeric = finite_difference_grads(params, objective)
        for ga, gn in zip(analytic.arrays(), numeric.arrays()):
            mag = np.maximum(np.abs(ga), np.abs(gn))
            excess = np.abs(ga - gn) - floor
            check = (mag > floor) & (excess > 0)
            if check.any():
                worst = max(worst, float((excess / mag)[check].max()))
    assert worst <= tolerance


def test_finite_difference_on_known_function():
    params = GcnParams(w0=np.array([[1.0, -2.0]]), w1=np.array([[0.5], [3.0]]))
    # f = 0.5 * sum of squares -> gradient is the parameters themselves
    fd = finite_difference_grads(
        params, lambda p: 0.5 * sum(float((m * m).sum()) for m in p.arrays()))
    assert np.allclose(fd.w0, params.w0, atol=1e-9)
    assert np.allclose(fd.w1, params.w1, atol=1e-9)


def test_gradient_check_fails_on_a_wrong_gradient(monkeypatch):
    """The audit fails when the analytic gradient of W1 is 0.1% off."""
    import gcndiag.gcn as gcn_module
    exact = gcn_module.gcn_loss_and_grad

    def skewed(*args, **kwargs):
        loss, grads = exact(*args, **kwargs)
        return loss, GcnParams(grads.w0, grads.w1 * (1 + 1e-3))

    monkeypatch.setattr(gcn_module, "gcn_loss_and_grad", skewed)
    with pytest.raises(AssertionError, match=r"^gradient check failed: max "
                       r"relative error \d\.\d{3}e-0[34] > 1e-05$"):
        gradient_check(num_instances=5, seed=0)


@pytest.mark.parametrize("case, error, message", [
    ("x_rows", ShapeError, r"features must be 4 x d, got (3, 3)"),
    ("x_flat", ShapeError, r"features must be 4 x d, got (12,)"),
    ("w0_rows", ShapeError, "W0 expects 2 input features, x has 3"),
    ("w1_rows", ShapeError, "W1 rows (4) != W0 cols (5)"),
    ("no_labels", InputError, "labeled set is empty"),
])
def test_loss_and_grad_rejects_bad_input(case, error, message):
    _, g, a, x, params, y = tiny_instance()
    labeled = np.arange(4)
    if case == "x_rows":
        x = x[:3]
    elif case == "x_flat":
        x = x.ravel()
    elif case == "w0_rows":
        params = GcnParams(params.w0[:2], params.w1)
    elif case == "w1_rows":
        params = GcnParams(params.w0, params.w1[:4])
    else:
        labeled = labeled[:0]
    with pytest.raises(error) as exc:
        gcn_loss_and_grad(params, a, x, y, labeled, np.ones(2))
    assert str(exc.value) == message


def test_corrupted_gradient_detected():
    _, g, a, x, params, y = tiny_instance()
    labeled = np.arange(4)
    w = np.ones(2)
    _, grads = gcn_loss_and_grad(params, a, x, y, labeled, w)
    fd = finite_difference_grads(
        params, lambda p: gcn_loss_and_grad(p, a, x, y, labeled, w)[0])
    assert np.allclose(grads.w0, fd.w0, atol=1e-9)
    corrupted = grads.w0 + 1e-3
    assert not np.allclose(corrupted, fd.w0, atol=1e-6)


def test_weight_decay_enters_gradient_not_loss():
    _, g, a, x, params, y = tiny_instance()
    labeled = np.arange(4)
    w = np.ones(2)
    loss0, g0 = gcn_loss_and_grad(params, a, x, y, labeled, w, weight_decay=0.0)
    loss1, g1 = gcn_loss_and_grad(params, a, x, y, labeled, w, weight_decay=0.1)
    assert loss0 == loss1
    assert np.allclose(g1.w0 - g0.w0, 0.1 * params.w0)
    assert np.allclose(g1.w1 - g0.w1, 0.1 * params.w1)


def test_dropout_inverted_scaling():
    _, g, a, x, params, _ = tiny_instance()
    ones = np.ones((4, 3))
    rng = np.random.default_rng(10)
    _, x_in, ax_in, h_drop, live = _forward(params, a, ones, 0.5, rng)
    vals = np.unique(x_in)
    assert set(np.round(vals, 12)) <= {0.0, 2.0}  # kept entries scaled by 1/(1-p)
    # hidden units: kept entries are exactly 1/(1-p) times the ReLU output of
    # the dropped-out input, dropped ones are 0, and only kept positive units
    # pass gradient
    h = np.maximum(ax_in @ params.w0, 0.0)
    assert live.dtype == bool and not (live & (h == 0)).any()
    assert np.array_equal(h_drop[live], 2.0 * h[live])
    assert (h_drop[~live] == 0).all()
    assert live.any() and (~live & (h > 0)).any()  # some kept, some dropped


def test_dropout_mean_preserving():
    rng = np.random.default_rng(11)
    _, g, a, _, params, _ = tiny_instance()
    big = np.ones((4, 3))
    total = np.zeros_like(big)
    reps = 4000
    for _ in range(reps):
        _, x_in, _, _, _ = _forward(params, a, big, 0.3, rng)
        total += x_in
    assert np.allclose(total / reps, 1.0, atol=0.05)


class _RawWords:
    """A stand-in Generator whose bit generator hands out fixed raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


def _word(*lanes):
    return sum(int(v) << (16 * k) for k, v in enumerate(lanes))


def test_keep_mask_threshold_at_half_is_32768():
    rng = _RawWords([_word(32767, 32768, 0, 65535), _word(32768, 1, 2, 3)])
    got = _keep_mask(rng, (5,), 0.5)
    assert got.tolist() == [True, False, True, False, False]


def test_keep_mask_advances_generator_by_ceil_quarter_words():
    for n in (1, 3, 4, 5, 7, 64, 6403):
        rng = np.random.default_rng(n)
        clone = copy.deepcopy(rng)
        _keep_mask(rng, (n,), 0.5)
        words = (n + 3) // 4
        assert rng.bit_generator.random_raw() == clone.bit_generator.random_raw(
            words + 1)[-1]
    # a train-mode forward draws the input mask, then the hidden mask
    _, g, a, x, params, _ = tiny_instance()
    rng = np.random.default_rng(3)
    clone = copy.deepcopy(rng)
    _forward(params, a, x, 0.5, rng)
    words = -(-x.size // 4) + -(-x.shape[0] * params.w0.shape[1] // 4)
    assert rng.bit_generator.random_raw() == clone.bit_generator.random_raw(
        words + 1)[-1]


def test_keep_mask_matches_shifted_lanes():
    for seed, shape, keep in [(0, (7,), 0.5), (1, (13, 5), 0.7),
                              (2, (2000, 3), 0.3), (3, (1, 1), 0.9)]:
        rng = np.random.default_rng(seed)
        got = _keep_mask(rng, shape, keep)
        want = _mask_by_definition(np.random.default_rng(seed), shape, keep)
        assert got.shape == shape and got.dtype == bool
        assert np.array_equal(got, want)


def test_dropout_below_two_to_minus_17_keeps_every_unit():
    _, g, a, x, params, _ = tiny_instance()
    rate = 2.0 ** -18
    _, x_in, ax_in, h_drop, live = _forward(
        params, a, x, rate, np.random.default_rng(0))
    scale = 1.0 / (1.0 - rate)
    assert np.array_equal(x_in, x * scale)
    h = np.maximum(ax_in @ params.w0, 0.0)
    assert np.array_equal(live, h > 0)
    assert np.array_equal(h_drop, h * scale)
    # the top lane is kept below 2^-17 and dropped just above it
    assert _keep_mask(_RawWords([_word(65535)]), (1,), 1.0 - rate)[0]
    assert not _keep_mask(_RawWords([_word(65535)]), (1,), 1.0 - 1.1 * 2.0 ** -17)[0]


def test_keep_mask_kept_fraction_within_four_sigma():
    n, keep = 1 << 20, 0.3
    t = round(keep * 2**16)
    p = t / 2**16
    assert abs(p - keep) <= 2.0 ** -17
    kept = _keep_mask(np.random.default_rng(12), (n,), keep).mean()
    assert abs(kept - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n)


def test_eval_forward_has_no_dropout():
    _, g, a, x, params, _ = tiny_instance()
    z1 = gcn_forward(params, a, x)
    z2 = gcn_forward(params, a, x, dropout_rate=0.0,
                     rng=np.random.default_rng(0))
    assert np.array_equal(z1, z2)


def test_dropout_requires_rng():
    _, g, a, x, params, _ = tiny_instance()
    with pytest.raises(InputError):
        gcn_forward(params, a, x, dropout_rate=0.5, rng=None)


def test_glorot_bounds_and_determinism():
    w = glorot_uniform(np.random.default_rng(5), 30, 20)
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.abs(w).max() <= limit
    w2 = glorot_uniform(np.random.default_rng(5), 30, 20)
    assert np.array_equal(w, w2)


def test_adam_single_step_hand_oracle():
    # one step from zero moments: update = -lr * g_hat with bias correction
    p = [np.array([1.0, 2.0])]
    g = [np.array([0.5, -1.0])]
    adam = Adam(learning_rate=0.1)
    adam.step(p, g)
    m_hat = np.array([0.5, -1.0])  # m / (1 - 0.9)
    v_hat = np.array([0.25, 1.0])  # v / (1 - 0.999)
    want = np.array([1.0, 2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p[0], want, atol=1e-12)


def test_adam_two_steps_hand_oracle():
    p = [np.array([0.0])]
    adam = Adam(learning_rate=0.01)
    g1, g2 = np.array([2.0]), np.array([-1.0])
    adam.step(p, [g1.copy()])
    m = 0.1 * 2.0
    v = 0.001 * 4.0
    x1 = -0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert p[0][0] == pytest.approx(x1, rel=1e-12)
    adam.step(p, [g2.copy()])
    m = 0.9 * m + 0.1 * (-1.0)
    v = 0.999 * v + 0.001 * 1.0
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    want = x1 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p[0][0] == pytest.approx(want, rel=1e-12)


def yin_yang_data(seed=12, n=60):
    """Homophilous ring of two blocks with informative features."""
    rng = np.random.default_rng(seed)
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.15 if y[i] == y[j] else 0.01
            if rng.random() < p:
                edges.append((i, j))
    g = build_graph(edges, n)
    x = rng.standard_normal((n, 4)) + np.where(y[:, None] == 0, 1.0, -1.0)
    return g, x, y


def test_training_improves_and_is_deterministic():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    cfg = GcnConfig(hidden=8, max_epochs=40, seed=4)
    t1 = train_gcn(cfg, a, x, y, split, 2)
    t2 = train_gcn(cfg, a, x, y, split, 2)
    assert np.array_equal(t1.params.w0, t2.params.w0)
    assert np.array_equal(t1.params.w1, t2.params.w1)
    assert [h[0] for h in t1.history] == [h[0] for h in t2.history]
    best_val = max(h[1] for h in t1.history)
    assert best_val >= 0.9
    assert t1.best_epoch == 1 + [h[1] for h in t1.history].index(best_val)


@pytest.mark.parametrize("hidden", [8, 2])
def test_training_propagation_budget(monkeypatch, hidden):
    # One d-wide propagation of X per training, then per epoch the train
    # forward and backward of layer 0, the train logits (C), the loss
    # gradient (C), and the eval logits on the cached A_hat X (C). With
    # d < 2h layer 0 propagates the dropped-out input (d) and nothing in the
    # backward pass; otherwise it propagates h columns in each pass.
    import gcndiag.gcn as gcn_module
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    widths = []
    spmm = gcn_module.spmm

    def counting(adj, m):
        widths.append(m.shape[1])
        return spmm(adj, m)

    monkeypatch.setattr(gcn_module, "spmm", counting)
    k, d, C = 5, x.shape[1], 2
    cfg = GcnConfig(hidden=hidden, dropout_rate=0.5, max_epochs=k, seed=4)
    trained = train_gcn(cfg, a, x, y, split, C)
    assert trained.stopped_epoch == k
    if d < 2 * hidden:
        assert len(widths) == 1 + 4 * k
        assert sum(widths) == d + k * (d + 3 * C)
    else:
        assert len(widths) == 1 + 5 * k
        assert sum(widths) == d + k * (2 * hidden + 3 * C)


def test_train_reuses_given_propagation(monkeypatch):
    import gcndiag.gcn as gcn_module
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    cfg = GcnConfig(hidden=8, max_epochs=5, seed=4)
    ax = a.matrix @ x
    with pytest.raises(ShapeError):
        train_gcn(cfg, a, x, y, split, 2, ax[:, :1])
    own = train_gcn(cfg, a, x, y, split, 2)
    widths = []
    spmm = gcn_module.spmm

    def counting(adj, m):
        widths.append(m.shape[1])
        return spmm(adj, m)

    monkeypatch.setattr(gcn_module, "spmm", counting)
    given = train_gcn(cfg, a, x, y, split, 2, ax)
    assert len(widths) == 4 * 5  # no propagation of X before the epochs
    assert np.array_equal(given.params.w0, own.params.w0)
    assert given.history == own.history


def test_train_rejects_non_finite_features():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    x = x.copy()
    x[4, 1] = -np.inf
    with pytest.raises(InputError, match="row 4, column 1"):
        train_gcn(GcnConfig(hidden=4, max_epochs=5), a, x, y, split, 2)


def test_early_stopping_on_flat_validation_score():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    # all-zero features freeze predictions, so the validation score never moves
    cfg = GcnConfig(hidden=8, max_epochs=200, seed=5)
    trained = train_gcn(cfg, a, np.zeros_like(x), y, split, 2)
    assert trained.stopped_epoch <= PATIENCE + 1
    assert trained.best_epoch == 1


def test_early_stopping_stops_patience_epochs_after_best(monkeypatch):
    import gcndiag.gcn as gcn_module
    monkeypatch.setattr(gcn_module, "PATIENCE", 3)
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    cfg = GcnConfig(hidden=8, max_epochs=200, seed=5)
    trained = train_gcn(cfg, a, np.zeros_like(x), y, split, 2)
    assert (trained.best_epoch, trained.stopped_epoch) == (1, 4)
    assert len(trained.history) == 4


@pytest.mark.parametrize("field, value", [
    ("hidden", 0), ("learning_rate", 0.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("weight_decay", -1e-4),
    ("weight_decay", float("inf")), ("max_epochs", 0), ("hidden", 2.5),
    ("hidden", True), ("max_epochs", 2.5),
])
def test_gcn_config_rejects_invalid_settings(field, value):
    message = f"GCN {field} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(InputError, match=message):
        GcnConfig(**{field: value})
    with pytest.raises(InputError, match=message):
        replace(GcnConfig(), **{field: value})
    GcnConfig(hidden=1, dropout_rate=0.0, learning_rate=1e-12,
              weight_decay=0.0, max_epochs=1)


@pytest.mark.parametrize("settings, message", [
    ({"num_instances": 2.5}, "num_instances must be an integer, got 2.5"),
    ({"num_instances": 0}, "num_instances must be >= 1, got 0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
])
def test_gradient_check_refuses_invalid_settings(settings, message):
    with pytest.raises(InputError) as exc:
        gradient_check(**settings)
    assert str(exc.value) == f"gradient check {message}"


def test_training_fails_on_the_first_non_finite_loss():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    # the first step moves every weight by about 1e300, so epoch 2 overflows;
    # the loss check fails it, and numpy warns of nothing on the way
    with pytest.raises(FloatingPointError, match=r"loss is (nan|inf) at epoch 2$"):
        train_gcn(GcnConfig(hidden=8, learning_rate=1e300), a, x, y, split, 2)


def test_snapshot_is_best_epoch_not_last():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    cfg = GcnConfig(hidden=8, max_epochs=60, seed=6)
    trained = train_gcn(cfg, a, x, y, split, 2)
    assert trained.best_epoch < trained.stopped_epoch
    # the predictions are the snapshot's own, made by its validation pass
    assert np.array_equal(trained.predictions, gcn_predict(trained.params, a, x))
    val_pred = trained.predictions[split.val_idx]
    from gcndiag.metrics import macro_f1_over_present
    snap_score = macro_f1_over_present(val_pred, y[split.val_idx], 2)
    assert snap_score == max(h[1] for h in trained.history)


def test_train_rejects_overlapping_split():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    bad = type(split)(
        train_idx=split.train_idx, test_idx=split.test_idx,
        visible_idx=split.visible_idx, subtrain_idx=split.subtrain_idx,
        val_idx=split.subtrain_idx[:2], masking_rate=0.0, seed=0,
    )
    with pytest.raises(InputError):
        train_gcn(GcnConfig(hidden=4, max_epochs=5), a, x, y, bad, 2)


@pytest.mark.parametrize("side, message", [
    ("subtrain_idx", "sub-train set is empty"),
    ("val_idx", "validation set is empty"),
])
def test_train_rejects_an_empty_split_side(side, message):
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    bad = replace(split, **{side: getattr(split, side)[:0]})
    with pytest.raises(InputError) as exc:
        train_gcn(GcnConfig(hidden=4, max_epochs=5), a, x, y, bad, 2)
    assert str(exc.value) == message


def test_validation_warning_when_class_missing():
    g, x, y = yin_yang_data()
    a = normalized_adjacency(g)
    split = make_split(y, 0.0, seed=3, num_classes=2)
    val_one_class = split.val_idx[y[split.val_idx] == 0]
    lopsided = type(split)(
        train_idx=split.train_idx, test_idx=split.test_idx,
        visible_idx=split.visible_idx, subtrain_idx=split.subtrain_idx,
        val_idx=val_one_class, masking_rate=0.0, seed=0,
    )
    trained = train_gcn(GcnConfig(hidden=4, max_epochs=5, seed=1),
                        a, x, y, lopsided, 2)
    assert any("missing classes" in w for w in trained.warnings)


def test_predict_tie_breaks_low():
    params = GcnParams(w0=np.zeros((2, 3)), w1=np.zeros((3, 4)))
    g = build_graph([(0, 1)], 2)
    a = normalized_adjacency(g)
    pred = gcn_predict(params, a, np.ones((2, 2)))
    assert (pred == 0).all()  # all logits equal


def test_init_params_shapes():
    p = init_params(np.random.default_rng(0), d=7, hidden=5, num_classes=3)
    assert p.w0.shape == (7, 5)
    assert p.w1.shape == (5, 3)
