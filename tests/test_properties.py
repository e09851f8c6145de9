"""Property tests: invariants that must hold for arbitrary small inputs."""

import os
import tempfile
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gcndiag import (Dataset, GcnConfig, SyntheticSpec, apply_masking,
                     build_graph, generate_features, generate_graph,
                     load_dataset, normalized_adjacency, run_grid,
                     save_dataset)
from gcndiag.dataset_io import _lines
from gcndiag.errors import InputError
from gcndiag.report import jsonable

from conftest import dense_normalized_adjacency

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


@PROPERTY_SETTINGS
@given(case=edge_lists())
def test_normalized_adjacency_rows_match_dense_oracle(case):
    n, edges = case
    got = normalized_adjacency(build_graph(edges, n)).matrix.toarray()
    want = dense_normalized_adjacency([(u, v) for u, v in edges if u != v], n)
    for u in range(n):
        np.testing.assert_allclose(got[u], want[u], rtol=1e-12, atol=0.0)


@st.composite
def datasets(draw):
    n, edges = draw(edge_lists())
    num_classes = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    y = np.array(draw(st.lists(st.integers(0, num_classes - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
    values = st.floats(-1e6, 1e6, allow_nan=False, width=32)
    x = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d)),
                 dtype=np.float64).reshape(n, d)
    return Dataset(name="property", graph=build_graph(edges, n), x=x, y=y,
                   num_classes=num_classes)


@PROPERTY_SETTINGS
@given(ds=datasets())
def test_save_load_round_trip_keeps_fingerprint(ds):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, tmp)
        back = load_dataset(tmp)
    assert back.fingerprint() == ds.fingerprint()
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


@settings(max_examples=5, deadline=None)
@given(data_seed=st.integers(0, 2**16), base_seed=st.integers(0, 2**31 - 1),
       classes=st.integers(2, 3))
def test_run_grid_same_seed_agrees(data_seed, base_seed, classes):
    spec = SyntheticSpec(n=90, num_classes=classes, target_homophily=0.8,
                         avg_degree=4.0, dim=3, signal=1.5, seed=data_seed)
    g, y = generate_graph(spec)
    x = generate_features(y, 3, 1.5, seed=data_seed + 1)
    a = normalized_adjacency(g)
    config = GcnConfig(hidden=8, max_epochs=20)
    first, second = (run_grid(a, x, y, base_seed=base_seed, gcn_config=config,
                              num_classes=classes) for _ in range(2))
    assert jsonable(asdict(first)) == jsonable(asdict(second))


# Pieces of container lines: every line ending text mode knows, blank and
# whitespace-only runs, bytes that are not UTF-8 (an encoded surrogate among
# them), separators that str.splitlines knows and text mode does not, and
# runs long enough to cross the reader's 8 KB decode chunks.
LINE_PIECES = [b"\n", b"\r\n", b"\r", b" ", b"\t", b"0\t1", b"label",
               "\u00e9".encode(), b"\xff", b"\xed\xb2\x80", b"\xe2",
               "\u0085".encode(), b"\x0c", "\u2028".encode(), b"x" * 9000,
               b"y" * 8191]


def lines_one_by_one(data):
    """(line number, stripped text) of the non-blank lines of ``data``, split
    as text mode splits and decoded one line at a time, and the number of
    the first line that is not UTF-8 (None if every line is)."""
    found = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            return found, lineno
        if text:
            found.append((lineno, text))
    return found, None


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(LINE_PIECES), max_size=40))
def test_lines_agree_with_a_line_by_line_decode(pieces):
    data = b"".join(pieces)
    want, bad_line = lines_one_by_one(data)
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.tsv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            got.extend(_lines(path))
        except InputError as exc:
            assert (str(exc), exc.line) == ("not valid UTF-8", bad_line)
        else:
            assert bad_line is None
    assert got == want
