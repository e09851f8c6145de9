import math

import numpy as np
import pytest

from gcndiag import (InputError, build_graph, edge_homophily, homophily_report,
                     neighbor_distribution, per_class_homophily,
                     top_foreign_neighbor)
from gcndiag.report import jsonable

from conftest import (brute_edge_homophily, brute_neighbor_distribution,
                      random_edge_list)


def test_six_node_hand_case(six_node_case):
    edges, y, expected = six_node_case
    g = build_graph(edges, 6)
    assert edge_homophily(g, y) == pytest.approx(expected["overall"])
    mat = neighbor_distribution(g, y, 3)
    assert np.allclose(mat, expected["matrix"])
    assert np.allclose(per_class_homophily(g, y, 3), expected["per_class"])
    top = top_foreign_neighbor(mat)
    for got, want in zip(top, expected["top_foreign"]):
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1])


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        num_classes = int(rng.integers(1, 6))
        edges = random_edge_list(rng, n, 3.0 / n)
        y = rng.integers(0, num_classes, size=n)
        g = build_graph(edges, n)

        got_h = edge_homophily(g, y)
        want_h = brute_edge_homophily(edges, y)
        if math.isnan(want_h):
            assert math.isnan(got_h)
        else:
            assert got_h == want_h  # same counts, same division

        got_m = neighbor_distribution(g, y, num_classes)
        want_m = brute_neighbor_distribution(edges, y, num_classes)
        assert np.allclose(got_m, want_m, equal_nan=True)
        assert np.allclose(per_class_homophily(g, y, num_classes),
                           np.diag(want_m), equal_nan=True)


def test_rows_sum_to_one_or_nan():
    rng = np.random.default_rng(5)
    edges = random_edge_list(rng, 60, 0.1)
    y = rng.integers(0, 4, size=60)
    g = build_graph(edges, 60)
    mat = neighbor_distribution(g, y, 5)  # class 4 never appears
    sums = mat.sum(axis=1)
    for c in range(5):
        if np.isnan(mat[c]).any():
            assert np.isnan(mat[c]).all()
        else:
            assert sums[c] == pytest.approx(1.0)
    assert np.isnan(mat[4]).all()


def test_edge_free_graph_is_undefined():
    g = build_graph([], 4)
    y = np.zeros(4, dtype=int)
    assert math.isnan(edge_homophily(g, y))
    assert np.isnan(per_class_homophily(g, y, 1)).all()


def test_single_class_graph_fully_homophilous():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    y = np.zeros(4, dtype=int)
    assert edge_homophily(g, y) == 1.0
    assert per_class_homophily(g, y, 1)[0] == 1.0
    # no foreign class exists at all
    assert top_foreign_neighbor(neighbor_distribution(g, y, 1)) == [None]


def test_top_foreign_tie_prefers_lowest_class():
    # class 1's half-edges split evenly between classes 0 and 2
    mat = np.array([
        [0.5, 0.5, 0.0],
        [0.4, 0.2, 0.4],
        [0.0, 1.0, 0.0],
    ])
    top = top_foreign_neighbor(mat)
    assert top[1] == (0, pytest.approx(0.4))


def test_top_foreign_none_when_isolated_class():
    mat = np.array([[1.0, 0.0], [np.nan, np.nan]])
    top = top_foreign_neighbor(mat)
    assert top == [None, None]


def test_report_serializes_nan_as_none():
    g = build_graph([(0, 1)], 3)  # node 2 isolated
    y = np.array([0, 0, 1])
    rep = jsonable(homophily_report(g, y, 2))
    assert rep["overall"] == 1.0
    assert rep["per_class"][0] == 1.0
    assert rep["per_class"][1] is None
    assert rep["neighbor_matrix"][1] == [None, None]


def test_label_validation():
    g = build_graph([(0, 1)], 2)
    with pytest.raises(InputError):
        edge_homophily(g, np.array([0]))  # wrong length
    with pytest.raises(InputError):
        neighbor_distribution(g, np.array([0, 3]), 2)  # label out of range
