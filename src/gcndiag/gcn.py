"""Two-layer graph convolutional classifier with hand-derived gradients.

Forward pass: Z = A_hat * ReLU(A_hat * X * W0) * W1, with inverted-scaling
dropout on the input features and on the hidden activations during training.
Each dropout mask reads 16-bit lanes of the generator's raw 64-bit words, four
lanes per word in little-endian order: an entry is kept where its lane is
below t = round((1 - p) * 2^16). So the keep probability is t / 2^16, within
2^-17 of 1 - p, and a rate below 2^-17 keeps every entry; kept entries are
scaled by exactly 1 / (1 - p).
Layer 0 multiplies in the cheaper order. Evaluated as (A_hat * X) * W0 it
propagates the d input columns in the forward pass and nothing in the
backward pass: A_hat is symmetric, so the W0 gradient X_in^T (A_hat dH)
equals (A_hat X_in)^T dH, and the forward pass already holds A_hat * X_in.
Evaluated as A_hat * (X * W0) it propagates h columns in each pass. So X is
propagated first when d < 2h. The two orders agree up to floating-point
rounding. In eval mode A_hat * X does not depend on the weights, so training
computes it once and every validation pass reuses it. Training is
full-batch Adam with early stopping on validation macro-F1.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, ShapeError, check_features, check_labels,
                     check_settings, count_rules)
from .graph import NormAdj, normalized_adjacency, spmm
from .metrics import macro_f1_over_present
from .synth import SyntheticSpec, generate_graph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PATIENCE = 10  # epochs without a better validation score before stopping
GRADCHECK_MIN_MAGNITUDE = 1e-8  # the gradient audit's additive floor
FD_STEP = 1e-5  # the central-difference step of finite_difference_grads


@dataclass(frozen=True)
class GcnConfig:
    hidden: int = 64
    dropout_rate: float = 0.5
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        check_settings("GCN", (
            *count_rules("hidden", self.hidden, 1),
            ("learning_rate", self.learning_rate, "finite and > 0",
             0.0 < self.learning_rate < np.inf),
            ("weight_decay", self.weight_decay, "finite and >= 0",
             0.0 <= self.weight_decay < np.inf),
            *count_rules("max_epochs", self.max_epochs, 1)))


@dataclass
class GcnParams:
    """Weight matrices of the two graph convolution layers (d x h and h x C)."""

    w0: np.ndarray
    w1: np.ndarray

    def copy(self) -> "GcnParams":
        return GcnParams(self.w0.copy(), self.w1.copy())

    def arrays(self):
        return [self.w0, self.w1]


@dataclass
class TrainedGcn:
    """Best-validation parameter snapshot, its eval-mode class per node, and
    the per-epoch trace."""

    params: GcnParams
    predictions: np.ndarray  # class per node, from the snapshot's eval pass
    history: list  # (train_loss, val_macro_f1) per epoch
    stopped_epoch: int
    best_epoch: int
    warnings: tuple = field(default=())

    def summary(self) -> dict:
        """The early-stopping trace that reports show for a training."""
        return {"best_epoch": self.best_epoch,
                "stopped_epoch": self.stopped_epoch,
                "warnings": list(self.warnings)}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(rng: np.random.Generator, d: int, hidden: int, num_classes: int) -> GcnParams:
    return GcnParams(
        w0=glorot_uniform(rng, d, hidden),
        w1=glorot_uniform(rng, hidden, num_classes),
    )


def class_weights(y, labeled_idx, num_classes: int) -> np.ndarray:
    """Balanced weights w_c = N_labeled / (C * count_c) over the labeled set.

    Indexed by ``y[labeled_idx]`` they give per-sample weights summing to
    N_labeled. Classes absent from the labeled set get weight 0 (they never
    enter the loss anyway).
    """
    labeled_idx = np.asarray(labeled_idx)
    counts = np.bincount(np.asarray(y)[labeled_idx], minlength=num_classes)
    w = np.zeros(num_classes, dtype=np.float64)
    present = counts > 0
    w[present] = labeled_idx.size / (num_classes * counts[present])
    return w


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Sum the rows of a class-major (C x n) array in the order numpy's
    pairwise summation adds the C entries of one contiguous row: left to
    right below 8 terms, else eight running partial sums combined pairwise
    plus the leftover tail, halving into multiples of 8 above 128 terms."""
    k = e.shape[0]
    if k < 8:
        return e.sum(axis=0)  # adds row after row, left to right
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _class_sum(e[:half]) + _class_sum(e[half:])
    tail = k - k % 8
    r = e[:8].copy()
    for i in range(8, tail, 8):
        r += e[i:i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(tail, k):
        total += e[i]
    return total


def softmax_cross_entropy(z: np.ndarray, y) -> tuple:
    """Per-row cross-entropy -log softmax(z)[y] and its gradient
    softmax(z) - onehot(y) with respect to z, both unweighted.

    ``z`` is n x C, or n x k x C for k problems that share the rows and
    labels; the cross-entropy is then n x k. The max and the sum over
    classes run on a class-major copy of ``z`` as elementwise operations
    across its C rows, which is faster than reducing many short rows.
    ``_class_sum`` keeps the row-wise sum's rounding, so the results equal
    the row-wise formulas bit for bit.
    """
    last = z.ndim - 1
    shifted = z.transpose(last, *range(last)).copy()  # class-major, in place
    shifted -= shifted.max(axis=0)
    logsum = np.log(_class_sum(np.exp(shifted)))
    rows = np.arange(shifted.shape[1])
    ce = logsum - shifted[y, rows]
    shifted -= logsum
    grad = np.exp(shifted, out=shifted).transpose(*range(1, last + 1), 0).copy()
    grad[rows, ..., y] -= 1.0
    return ce, grad


def _check_dims(params: GcnParams, a: NormAdj, x: np.ndarray):
    if x.ndim != 2 or x.shape[0] != a.n:
        raise ShapeError(f"features must be {a.n} x d, got {x.shape}")
    if params.w0.shape[0] != x.shape[1]:
        raise ShapeError(
            f"W0 expects {params.w0.shape[0]} input features, x has {x.shape[1]}"
        )
    if params.w1.shape[0] != params.w0.shape[1]:
        raise ShapeError(
            f"W1 rows ({params.w1.shape[0]}) != W0 cols ({params.w0.shape[1]})"
        )


def _propagates_input_first(d: int, hidden: int) -> bool:
    """Whether layer 0 propagates X (d columns) rather than X * W0 (h columns).

    A training step propagates d columns when X goes first and 2h columns
    (forward and backward) when X * W0 goes first.
    """
    return d < 2 * hidden


def _keep_mask(rng: np.random.Generator, shape, keep: float) -> np.ndarray:
    """Boolean dropout mask: entry i is kept where lane i is below
    t = round(keep * 2^16), lane i being bits 16(i mod 4) to 16(i mod 4) + 15
    of raw word i // 4. A mask of n entries takes ceil(n / 4) words."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-n // 4))
    lanes = words.astype("<u8", copy=False).view("<u2")[:n]
    return (lanes < round(keep * 65536)).reshape(shape)


def _forward(params, a, x, dropout_rate, rng, ax=None):
    """Returns logits plus the intermediates needed for the backward pass:
    (z, x_in, ax_in, h_drop, live).

    ``ax`` is A_hat * x, used in eval mode in place of propagating ``x``.
    The returned A_hat * x_in is None when layer 0 propagated x_in * W0.
    ``live`` marks the hidden units the gradient flows through: positive
    pre-activation and, in training, kept by dropout. In training the input
    mask and then the hidden mask come from ``_keep_mask``: each entry is
    kept with probability t / 2^16, t = round((1 - p) * 2^16), within 2^-17
    of 1 - p, and kept entries are scaled by exactly 1 / (1 - p). The masks
    are boolean, so a step holds no float mask and no copy of the
    pre-activation.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0 and rng is None:
        raise InputError("dropout needs an rng; pass rng or set the rate to 0")
    training = dropout_rate > 0.0
    if training:
        keep = 1.0 - dropout_rate
        scale = 1.0 / keep
        x_in = x * _keep_mask(rng, x.shape, keep)
        x_in *= scale
    else:
        x_in = x
    if ax is None and _propagates_input_first(*params.w0.shape):
        ax = spmm(a, x_in)
    h = spmm(a, x_in @ params.w0) if ax is None else ax @ params.w0
    np.maximum(h, 0.0, out=h)
    live = h > 0
    if training:
        kept = _keep_mask(rng, h.shape, keep)
        live &= kept
        h *= kept
        h *= scale
    z = spmm(a, h @ params.w1)
    return z, x_in, ax, h, live


def gcn_forward(params: GcnParams, a: NormAdj, x: np.ndarray,
                dropout_rate: float = 0.0, rng=None) -> np.ndarray:
    """Logits Z (n x C). Pass a Generator as ``rng`` to enable train-mode dropout."""
    x = np.asarray(x, dtype=np.float64)
    _check_dims(params, a, x)
    z, *_ = _forward(params, a, x, dropout_rate, rng)
    return z


def gcn_loss_and_grad(params: GcnParams, a: NormAdj, x: np.ndarray, y,
                      labeled_idx, weights, weight_decay: float = 0.0,
                      dropout_rate: float = 0.0, rng=None):
    """Class-weighted NLL over labeled nodes and exact analytic gradients.

    The returned loss is the data term; the gradients are of
    loss + (weight_decay / 2) * ||params||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_dims(params, a, x)
    labeled_idx = np.asarray(labeled_idx)
    if labeled_idx.size == 0:
        raise InputError("labeled set is empty")
    y = np.asarray(y)

    z, x_in, ax_in, h_drop, live = _forward(params, a, x, dropout_rate, rng)
    y_l = y[labeled_idx]
    ce, dz_labeled = softmax_cross_entropy(z[labeled_idx], y_l)
    wl = np.asarray(weights)[y_l]
    wsum = wl.sum()
    loss = float((wl * ce).sum() / wsum)
    dz_labeled *= (wl / wsum)[:, None]
    dz = np.zeros_like(z)
    dz[labeled_idx] = dz_labeled

    g1 = spmm(a, dz)  # A_hat is symmetric, so A_hat^T dZ = A_hat dZ
    gw1 = h_drop.T @ g1 + weight_decay * params.w1
    del h_drop  # free the n x h activation before dh takes its place
    dh = g1 @ params.w1.T  # becomes the pre-activation gradient in place
    dh *= live
    if dropout_rate > 0.0:
        dh *= 1.0 / (1.0 - dropout_rate)
    if ax_in is None:
        gw0 = x_in.T @ spmm(a, dh) + weight_decay * params.w0
    else:
        gw0 = ax_in.T @ dh + weight_decay * params.w0
    return loss, GcnParams(gw0, gw1)


def gcn_predict(params: GcnParams, a: NormAdj, x: np.ndarray) -> np.ndarray:
    """Argmax class per node in eval mode; ties break toward the lowest id."""
    return np.argmax(gcn_forward(params, a, x), axis=1)


class Adam:
    """Standard bias-corrected Adam updating arrays in place."""

    def __init__(self, learning_rate):
        self.lr = learning_rate
        self.t = 0
        self.m = None
        self.v = None

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        for p, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            m_hat = m / (1 - ADAM_BETA1 ** self.t)
            v_hat = v / (1 - ADAM_BETA2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_gcn(cfg: GcnConfig, a: NormAdj, x: np.ndarray, y, split,
              num_classes: int, ax=None) -> TrainedGcn:
    """Full-batch Adam with early stopping on validation macro-F1.

    ``split`` supplies disjoint ``subtrain_idx`` and ``val_idx``. Stops when
    the validation score fails to improve for ``PATIENCE`` consecutive epochs;
    the returned snapshot is the first epoch achieving the best score, with
    the eval-mode predictions that epoch's validation pass made for every
    node. ``ax`` is the propagated features A_hat * x, computed from ``x``
    when not given. Features that are not n x d are a ShapeError, and a
    non-finite feature or a label that is not a class id an InputError. A
    non-finite training loss raises FloatingPointError naming its epoch.
    """
    x = check_features(x, rows=a.n)
    if ax is not None and np.shape(ax) != x.shape:
        raise ShapeError(f"propagated features must be {x.shape}, got {np.shape(ax)}")
    y = check_labels(y, num_classes)
    sub = np.asarray(split.subtrain_idx)
    val = np.asarray(split.val_idx)
    if sub.size == 0:
        raise InputError("sub-train set is empty")
    if val.size == 0:
        raise InputError("validation set is empty")
    if np.intersect1d(sub, val).size:
        raise InputError("sub-train and validation sets overlap")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(rng, x.shape[1], cfg.hidden, num_classes)
    weights = class_weights(y, sub, num_classes)

    warnings = []
    missing = np.setdiff1d(np.arange(num_classes), np.unique(y[val]))
    if missing.size:
        warnings.append(
            f"validation set missing classes {missing.tolist()}; "
            "early stopping uses macro-F1 over present classes"
        )

    if ax is None:
        ax = spmm(a, x)
    adam = Adam(cfg.learning_rate)
    best_score = -np.inf  # below every F1, so epoch 1 sets the first snapshot
    history = []
    # a diverging run overflows before its loss turns non-finite; the loss
    # check below is the one signal, so numpy does not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            loss, grads = gcn_loss_and_grad(
                params, a, x, y, sub, weights,
                weight_decay=cfg.weight_decay,
                dropout_rate=cfg.dropout_rate,
                rng=rng,
            )
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"GCN training loss is {loss} at epoch {epoch}")
            adam.step(params.arrays(), grads.arrays())
            pred = np.argmax(_forward(params, a, x, 0.0, None, ax)[0], axis=1)
            val_f1 = macro_f1_over_present(pred[val], y[val], num_classes)
            history.append((loss, val_f1))
            if val_f1 > best_score:
                best_score = val_f1
                best_params = params.copy()
                best_predictions = pred
                best_epoch = epoch
            if epoch - best_epoch >= PATIENCE:
                break

    return TrainedGcn(
        params=best_params,
        predictions=best_predictions,
        history=history,
        stopped_epoch=epoch,
        best_epoch=best_epoch,
        warnings=tuple(warnings),
    )


def finite_difference_grads(params: GcnParams, loss_fn) -> GcnParams:
    """Central-difference gradient of ``loss_fn(params)`` coordinate by
    coordinate, with step FD_STEP."""
    out = GcnParams(np.zeros_like(params.w0), np.zeros_like(params.w1))
    for mat, gmat in zip(params.arrays(), out.arrays()):
        flat = mat.ravel()
        gflat = gmat.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = loss_fn(params)
            flat[i] = orig - FD_STEP
            lo = loss_fn(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * FD_STEP)
    return out


def gradient_check(num_instances: int = 50, seed: int = 0):
    """Compare analytic gradients against central differences on random instances.

    A coordinate agrees when |analytic - numeric| is at most the floor
    GRADCHECK_MIN_MAGNITUDE + 1e-5 * max(|analytic|, |numeric|), the same
    mixed bound numpy.allclose uses; the floor absorbs the oracle's own
    roundoff, near eps * |loss| / (2 * FD_STEP) whatever the gradient's size.
    Coordinates where both gradients are below the floor are skipped.
    Instances whose hidden pre-activations land within a few steps of the ReLU
    kink are redrawn: central differences straddle the kink there and stop
    being a valid oracle, while the analytic subgradient stays exact.
    Returns (max forgiven relative error over checked coordinates, instances,
    largest |analytic - numeric| over every coordinate), the last to set
    beside the floor.
    """
    check_settings("gradient check", (
        *count_rules("num_instances", num_instances, 1),
        *count_rules("seed", seed, 0)))
    tolerance = 1e-5
    rng = np.random.default_rng(seed)
    worst = largest = 0.0
    for _ in range(num_instances):
        C = int(rng.integers(2, 5))
        n = int(rng.integers(2 * C, 21))  # every class needs 2+ nodes
        d = int(rng.integers(1, 9))
        hidden = int(rng.integers(1, 7))
        spec = SyntheticSpec(
            n=n, num_classes=C, target_homophily=0.7,
            avg_degree=min(3.0, n - 1), dim=d, signal=1.0,
            seed=int(rng.integers(0, 2**32)),
        )
        g, y = generate_graph(spec)
        a = normalized_adjacency(g)
        kink_margin = 100.0 * FD_STEP
        for _ in range(100):
            x = rng.standard_normal((n, d))
            params = GcnParams(
                w0=rng.standard_normal((d, hidden)) * 0.5,
                w1=rng.standard_normal((hidden, C)) * 0.5,
            )
            h_pre = spmm(a, x) @ params.w0
            if np.abs(h_pre).min() > kink_margin:
                break
        else:
            raise AssertionError("gradient check failed: could not draw an "
                                 "instance clear of ReLU kinks")
        labeled = rng.choice(n, size=max(2, n // 2), replace=False)
        weights = class_weights(y, labeled, C)
        wd = float(rng.choice([0.0, 0.0, 1e-3]))

        _, analytic = gcn_loss_and_grad(
            params, a, x, y, labeled, weights, weight_decay=wd
        )

        def objective(p):
            loss, _ = gcn_loss_and_grad(p, a, x, y, labeled, weights)
            reg = 0.5 * wd * sum(float((m * m).sum()) for m in p.arrays())
            return loss + reg

        numeric = finite_difference_grads(params, objective)
        for ga, gn in zip(analytic.arrays(), numeric.arrays()):
            mag = np.maximum(np.abs(ga), np.abs(gn))
            diff = np.abs(ga - gn)
            largest = max(largest, float(diff.max()))
            excess = diff - GRADCHECK_MIN_MAGNITUDE
            check = (mag > GRADCHECK_MIN_MAGNITUDE) & (excess > 0)
            if check.any():
                rel = (excess / mag)[check]
                worst = max(worst, float(rel.max()))
    if worst > tolerance:
        raise AssertionError(
            f"gradient check failed: max relative error {worst:.3e} > {tolerance:.0e}"
        )
    return worst, num_instances, largest
