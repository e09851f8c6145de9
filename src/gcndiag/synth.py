"""Planted-partition graphs with tunable edge homophily plus Gaussian features.

Edges are drawn against a fixed budget of n * avg_degree / 2: each draw is
intra-class with probability ``target_homophily`` (endpoint pair uniform
within the class) and inter-class otherwise (uniform across classes).
Collisions and duplicates are resampled, so the achieved homophily tracks the
target closely once the graph is reasonably large.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_labels, check_settings, count_rules
from .graph import Graph, build_graph


def _feature_rules(dim, signal, seed):
    """The settings rules that SyntheticSpec and generate_features share."""
    return (*count_rules("dim", dim, 1),
            ("signal", signal, "finite and >= 0", 0.0 <= signal < np.inf),
            *count_rules("seed", seed, 0))


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    num_classes: int
    target_homophily: float
    avg_degree: float
    dim: int
    signal: float
    seed: int = 0

    def __post_init__(self):
        check_settings("synthetic", (
            *count_rules("n", self.n, 2),
            *count_rules("num_classes", self.num_classes, 1),
            ("target_homophily", self.target_homophily, "in (0, 1]",
             0.0 < self.target_homophily <= 1.0),
            ("avg_degree", self.avg_degree, "finite and > 0",
             0.0 < self.avg_degree < np.inf),
            *_feature_rules(self.dim, self.signal, self.seed)))


def class_sizes(n: int, num_classes: int) -> np.ndarray:
    """Split n nodes into balanced classes by largest remainder."""
    ideal = np.full(num_classes, 1.0 / num_classes) * n
    sizes = np.floor(ideal).astype(np.int64)
    remainder = n - sizes.sum()
    order = np.argsort(-(ideal - sizes), kind="stable")
    sizes[order[:remainder]] += 1
    return sizes


def generate_graph(spec: SyntheticSpec):
    """Sample (Graph, labels) with edge homophily near the target."""
    C = spec.num_classes
    sizes = class_sizes(spec.n, C)
    if spec.target_homophily * spec.n / C < 1.0:
        raise InputError(
            f"infeasible spec: homophily {spec.target_homophily} with "
            f"{spec.n} nodes over {C} classes"
        )
    if (sizes < 2).any():
        raise InputError(
            f"infeasible spec: class sizes {sizes.tolist()} leave no room "
            "for intra-class edges"
        )
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    y = np.repeat(np.arange(C, dtype=np.int64), sizes)

    target_edges = int(round(spec.n * spec.avg_degree / 2.0))
    max_intra = int((sizes * (sizes - 1) // 2).sum())
    max_total = spec.n * (spec.n - 1) // 2
    cap = max_intra if (C == 1 or spec.target_homophily >= 1.0) else max_total
    if target_edges > cap:
        raise InputError(
            f"infeasible spec: {target_edges} edges requested, graph supports "
            f"at most {cap}"
        )

    rng = np.random.default_rng(spec.seed)
    chosen = set()
    while len(chosen) < target_edges:
        need = target_edges - len(chosen)
        batch = max(64, 2 * need)
        u = rng.integers(0, spec.n, size=batch)
        cu = y[u]
        off = offsets[cu]
        sz = sizes[cu]
        intra = (rng.random(batch) < spec.target_homophily) | (C == 1)

        v = np.empty(batch, dtype=np.int64)
        # same class, excluding u itself
        r_in = rng.integers(0, np.maximum(sz - 1, 1))
        pos_u = u - off
        v_in = off + r_in + (r_in >= pos_u)
        # other classes, skipping u's block
        r_out = rng.integers(0, np.maximum(spec.n - sz, 1))
        v_out = r_out + (r_out >= off) * sz
        v[intra] = v_in[intra]
        v[~intra] = v_out[~intra]

        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        for code in (lo * spec.n + hi).tolist():
            if len(chosen) == target_edges:
                break
            chosen.add(code)

    codes = np.sort(np.fromiter(chosen, dtype=np.int64, count=len(chosen)))
    edges = np.column_stack([codes // spec.n, codes % spec.n])
    return build_graph(edges, spec.n), y


def generate_features(y, dim: int, signal: float, seed: int = 0) -> np.ndarray:
    """Class means on a sphere of radius ``signal`` plus unit Gaussian noise.

    signal=0 collapses to pure N(0, I) noise, the same distribution the
    feature-ablation protocol uses.
    """
    check_settings("synthetic", _feature_rules(dim, signal, seed))
    y = check_labels(y)
    C = int(y.max()) + 1 if y.size else 1
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((C, dim))
    if signal == 0:
        mu = np.zeros_like(mu)
    else:
        mu *= signal / np.linalg.norm(mu, axis=1, keepdims=True)
    return mu[y] + rng.standard_normal((y.size, dim))
