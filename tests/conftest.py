"""Shared helpers: independent brute-force oracles the library must agree
with, and the skip marks and BLAS fixture of the ``fork_map`` tests.

The oracles recompute quantities from raw edge lists with plain loops or
dense numpy, deliberately avoiding the library's CSR code paths.
"""

import multiprocessing

import numpy as np
import pytest

from gcndiag.parallel import openblas_thread_calls

# (set, get) for numpy's OpenBLAS thread count, or None where it is not found
BLAS = openblas_thread_calls()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="numpy's OpenBLAS thread symbols not found")
forks = pytest.mark.skipif(
    BLAS is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork and numpy's OpenBLAS thread symbols")


@pytest.fixture
def blas_before():
    """Start from two BLAS threads, a count that a pin left in place would
    change (OpenBLAS caps it at the core count), and put the original back."""
    if BLAS is None:
        yield None
        return
    original = BLAS[1]()
    BLAS[0](2)
    yield BLAS[1]()
    BLAS[0](original)


def random_edge_list(rng, n, p=0.15):
    """Random undirected simple graph as a sorted (u, v) list with u < v."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges


def dense_normalized_adjacency(edges, n):
    """D^{-1/2} (A + I) D^{-1/2} built densely from the edge list."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a_tilde = a + np.eye(n)
    deg = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]


def brute_edge_homophily(edges, y):
    if not edges:
        return float("nan")
    same = sum(1 for u, v in edges if y[u] == y[v])
    return same / len(edges)


def brute_neighbor_distribution(edges, y, num_classes):
    """Half-edge enumeration: each edge contributes to both endpoint rows."""
    counts = np.zeros((num_classes, num_classes))
    for u, v in edges:
        counts[y[u], y[v]] += 1
        counts[y[v], y[u]] += 1
    totals = counts.sum(axis=1)
    out = np.full((num_classes, num_classes), np.nan)
    for c in range(num_classes):
        if totals[c] > 0:
            out[c] = counts[c] / totals[c]
    return out


def brute_f1(pred, truth, num_classes):
    """Per-class F1 from first principles; 0/0 counts as 0."""
    out = []
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        denom = 2 * tp + fp + fn
        out.append(0.0 if denom == 0 else 2 * tp / denom)
    return out


@pytest.fixture
def six_node_case():
    """Hand-checked worked example used across homophily tests.

    Edges: 0-1, 0-2, 1-2, 2-3, 3-4, 4-5 with labels [0, 0, 0, 1, 1, 2].
    Same-label edges: 0-1, 0-2, 1-2, 3-4 -> overall homophily 4/6.
    Half-edge rows: class 0 has 7 half-edges (6 to class 0, 1 to class 1),
    class 1 has 4 (1 to class 0, 2 to class 1, 1 to class 2), class 2 has 1
    (to class 1).
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]
    y = np.array([0, 0, 0, 1, 1, 2])
    expected = {
        "overall": 4 / 6,
        "matrix": np.array([
            [6 / 7, 1 / 7, 0.0],
            [1 / 4, 2 / 4, 1 / 4],
            [0.0, 1.0, 0.0],
        ]),
        "per_class": np.array([6 / 7, 2 / 4, 0.0]),
        "top_foreign": [(1, 1 / 7), (0, 1 / 4), (1, 1.0)],
    }
    return edges, y, expected
