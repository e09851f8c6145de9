"""Label-agreement analytics: edge homophily, per-class homophily, neighbor mix.

Per-class quantities are defined over half-edges: each undirected edge (u, v)
contributes one half-edge to u's class row (with neighbor class y_v) and one
to v's class row. The diagonal of the resulting row-stochastic matrix is the
per-class homophily. Classes with no incident edges get NaN entries rather
than silent zeros.
"""

import numpy as np

from .errors import InputError
from .graph import Graph


def _check_labels(g: Graph, y: np.ndarray, num_classes=None) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (g.n,):
        raise InputError(f"labels must cover all {g.n} nodes, got shape {y.shape}")
    if y.size and y.min() < 0:
        raise InputError(f"negative label at node {int(np.argmin(y))}")
    if num_classes is not None and y.size and y.max() >= num_classes:
        bad = int(np.argmax(y))
        raise InputError(
            f"label {int(y.max())} at node {bad} out of range [0, {num_classes})"
        )
    return y


def edge_homophily(g: Graph, y) -> float:
    """Fraction of undirected edges whose endpoints share a label.

    Returns NaN for an edge-free graph (the fraction is undefined).
    """
    y = _check_labels(g, y)
    if g.num_edges == 0:
        return float("nan")
    edges = g.edge_array()
    same = y[edges[:, 0]] == y[edges[:, 1]]
    return float(np.count_nonzero(same) / g.num_edges)


def neighbor_distribution(g: Graph, y, num_classes: int) -> np.ndarray:
    """C x C row-stochastic matrix: row c is the class mix of class-c half-edges.

    Rows for classes with no incident edges are NaN.
    """
    y = _check_labels(g, y, num_classes)
    counts = np.zeros((num_classes, num_classes), dtype=np.float64)
    np.add.at(counts, (y[g.half_edge_sources()], y[g.col_indices]), 1.0)
    totals = counts.sum(axis=1)
    out = np.full_like(counts, np.nan)
    nonzero = totals > 0
    out[nonzero] = counts[nonzero] / totals[nonzero, None]
    return out


def per_class_homophily(g: Graph, y, num_classes: int) -> np.ndarray:
    """Diagonal of the neighbor distribution; NaN marks edge-free classes."""
    return np.diagonal(neighbor_distribution(g, y, num_classes)).copy()


def top_foreign_neighbor(matrix: np.ndarray):
    """Per class, the dominant off-diagonal neighbor class and its fraction.

    Returns a list with one entry per class: (class_id, fraction), or None
    when undefined (single class, edge-free class, or no foreign neighbors at
    all). Ties break toward the lowest class id.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    C = matrix.shape[0]
    foreign = np.where(np.isnan(matrix) | np.eye(C, dtype=bool), -np.inf, matrix)
    best = np.argmax(foreign, axis=1)  # the first maximum: lowest class id
    value = foreign[np.arange(C), best]
    return [(int(b), float(v)) if v > 0 else None for b, v in zip(best, value)]


def homophily_report(g: Graph, y, num_classes: int) -> dict:
    """Overall and per-class homophily, the neighbor matrix and each class's
    top foreign neighbor. Undefined values stay NaN; ``report.jsonable``
    writes them as null."""
    matrix = neighbor_distribution(g, y, num_classes)
    return {
        "overall": edge_homophily(g, y),
        "per_class": np.diagonal(matrix).copy(),
        "neighbor_matrix": matrix,
        "top_foreign": [
            None if t is None else {"class": t[0], "fraction": t[1]}
            for t in top_foreign_neighbor(matrix)
        ],
    }
