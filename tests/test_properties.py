"""Property tests: invariants that must hold for arbitrary small inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gcndiag import apply_masking, build_graph

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=40))


@PROPERTY_SETTINGS
@given(case=edge_lists(), data=st.data())
def test_build_graph_invariant_to_order_orientation_and_repeats(case, data):
    n, edges = case
    base = build_graph(edges, n)
    assert base.num_edges == len({(min(u, v), max(u, v)) for u, v in edges if u != v})

    flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges)))
    variant = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    if variant:
        variant += data.draw(st.lists(st.sampled_from(variant), max_size=10))
    variant = data.draw(st.permutations(variant))
    other = build_graph(variant, n)
    assert other.num_edges == base.num_edges
    assert np.array_equal(other.row_offsets, base.row_offsets)
    assert np.array_equal(other.col_indices, base.col_indices)


@st.composite
def labelled_training_sets(draw):
    y = np.array(draw(st.lists(st.integers(0, 5), min_size=1, max_size=60)))
    in_train = draw(st.lists(st.booleans(), min_size=y.size, max_size=y.size)
                    .filter(any))
    return y, np.flatnonzero(in_train)


@PROPERTY_SETTINGS
@given(case=labelled_training_sets(), seed=st.integers(0, 2**31 - 1))
def test_masking_nested_and_keeps_every_class(case, seed):
    y, train = case
    vis0, vis50, vis90 = (apply_masking(y, train, rate, seed)
                          for rate in (0.0, 0.5, 0.9))
    assert np.array_equal(vis0, train)
    assert set(vis90) <= set(vis50) <= set(vis0)
    for vis in (vis50, vis90):
        assert set(y[vis]) == set(y[train])
