import numpy as np
import pytest

from gcndiag import InputError, ShapeError, build_graph, normalized_adjacency, spmm
from gcndiag.graph import Graph

from conftest import dense_normalized_adjacency, random_edge_list


def test_build_graph_basic():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.n == 3
    assert g.num_edges == 2
    assert list(g.degrees()) == [1, 2, 1]
    assert list(g.col_indices[g.row_offsets[1]:g.row_offsets[2]]) == [0, 2]
    # a float id that is a whole number names that node
    g = build_graph([(0.0, 1), (1, 2.0)], 3)
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]


def test_build_graph_canonicalizes_and_dedups():
    # same edge in both orientations plus an exact duplicate
    g = build_graph([(2, 0), (0, 2), (0, 2)], 3)
    assert g.num_edges == 1
    assert g.edge_array().tolist() == [[0, 2]]


def test_build_graph_drops_self_loops():
    g = build_graph([(1, 1), (0, 1)], 2)
    assert g.num_edges == 1


def test_build_graph_rejects_bad_ids():
    with pytest.raises(InputError) as exc:
        build_graph([(0, 1), (1, 5)], 3)
    assert "1" in str(exc.value)  # offending position reported
    with pytest.raises(InputError):
        build_graph([(-1, 0)], 3)


def test_neighbors_sorted():
    rng = np.random.default_rng(0)
    edges = random_edge_list(rng, 30, 0.2)
    g = build_graph(edges, 30)
    for u in range(30):
        nb = g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]
        assert list(nb) == sorted(nb)


def test_edge_array_round_trip():
    rng = np.random.default_rng(1)
    edges = random_edge_list(rng, 25, 0.2)
    g = build_graph(edges, 25)
    assert sorted(map(tuple, g.edge_array().tolist())) == sorted(edges)


def test_graph_arrays_read_only():
    g = build_graph([(0, 1)], 2)
    with pytest.raises(ValueError):
        g.col_indices[0] = 9


def test_normalized_adjacency_read_only():
    m = normalized_adjacency(build_graph([(0, 1), (1, 2)], 3)).matrix
    for arr in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        edges = random_edge_list(rng, n, 0.15)
        g = build_graph(edges, n)
        dense = normalized_adjacency(g).matrix.toarray()
        oracle = dense_normalized_adjacency(edges, n)
        assert np.allclose(dense, oracle, rtol=1e-12, atol=1e-15)


def test_normalized_adjacency_hand_values():
    # path 0-1-2: deg+1 = [2, 3, 2]
    g = build_graph([(0, 1), (1, 2)], 3)
    dense = normalized_adjacency(g).matrix.toarray()
    assert dense[0, 0] == pytest.approx(1 / 2)
    assert dense[1, 1] == pytest.approx(1 / 3)
    assert dense[0, 1] == pytest.approx(1 / np.sqrt(6))
    assert dense[0, 2] == 0.0


def test_isolated_node_self_weight_is_one():
    g = build_graph([(0, 1)], 3)  # node 2 isolated
    dense = normalized_adjacency(g).matrix.toarray()
    assert dense[2, 2] == 1.0
    assert dense[2, :2].sum() == 0.0


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        edges = random_edge_list(rng, n, 0.2)
        g = build_graph(edges, n)
        a = normalized_adjacency(g)
        m = rng.standard_normal((n, int(rng.integers(1, 6))))
        oracle = dense_normalized_adjacency(edges, n) @ m
        got = spmm(a, m)
        denom = np.maximum(np.abs(oracle), 1e-15)
        assert (np.abs(got - oracle) / denom).max() < 1e-12


def test_spmm_shape_mismatch():
    g = build_graph([(0, 1)], 2)
    a = normalized_adjacency(g)
    with pytest.raises(ShapeError):
        spmm(a, np.zeros((3, 4)))


def test_graph_rejects_inconsistent_offsets():
    with pytest.raises(InputError):
        Graph(n=2, row_offsets=np.array([0, 1]),  # should have n+1 entries
              col_indices=np.array([1]), num_edges=1)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Graph(n=2, row_offsets=np.array([0, 1, 2]),
                   col_indices=np.array([1]), num_edges=1),
     InputError, "row_offsets do not cover col_indices"),
    (lambda: build_graph([(0, 1)], 0), InputError,
     "node count must be a positive integer, got 0"),
    (lambda: build_graph([(0, 1)], -3), InputError,
     "node count must be a positive integer, got -3"),
    (lambda: build_graph([(0, 1)], 2.5), InputError,
     "node count must be a positive integer, got 2.5"),
    (lambda: build_graph([(0, 1)], np.nan), InputError,
     "node count must be a positive integer, got nan"),
    (lambda: build_graph([(0, 1)], True), InputError,
     "node count must be a positive integer, got True"),
    (lambda: build_graph([(0, 1, 2)], 3), InputError,
     "edge list must be a sequence of (u, v) pairs"),
    (lambda: build_graph([0, 1], 3), InputError,
     "edge list must be a sequence of (u, v) pairs"),
    (lambda: build_graph([(0, 1.7), (1, 2)], 3), InputError,
     "edge 0: node id not an integer in [0, 3): (0.0, 1.7)"),
    (lambda: build_graph([(0, 1), (np.nan, 2)], 3), InputError,
     "edge 1: node id not an integer in [0, 3): (nan, 2.0)"),
    (lambda: build_graph([(0, 1), (1, 2), (-np.inf, 0)], 3), InputError,
     "edge 2: node id not an integer in [0, 3): (-inf, 0.0)"),
    (lambda: build_graph([(0, 1), (1, 5)], 3), InputError,
     "edge 1: node id not an integer in [0, 3): (1, 5)"),
    (lambda: spmm(normalized_adjacency(build_graph([(0, 1)], 2)), np.zeros(2)),
     ShapeError, "right operand must be 2-D, got ndim=1"),
], ids=["offsets_vs_indices", "zero_nodes", "negative_nodes",
        "fractional_nodes", "nan_nodes", "bool_nodes", "triples",
        "flat_list", "fractional_id", "nan_id", "infinite_id", "id_out_of_range",
        "flat_operand"])
def test_graph_input_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
