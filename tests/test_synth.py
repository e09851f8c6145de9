import numpy as np
import pytest

from gcndiag import InputError, edge_homophily, generate_features, generate_graph
from gcndiag.synth import SyntheticSpec, class_sizes


def test_class_sizes_balanced():
    assert class_sizes(10, 3).tolist() == [4, 3, 3]
    assert class_sizes(11, 4).tolist() == [3, 3, 3, 2]
    assert class_sizes(12, 4).tolist() == [3, 3, 3, 3]
    assert class_sizes(2000, 10).tolist() == [200] * 10


def test_class_sizes_always_sum_to_n():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        c = int(rng.integers(1, 12))
        assert class_sizes(n, c).sum() == n


def spec_with(**kw):
    base = dict(n=400, num_classes=4, target_homophily=0.7, avg_degree=8.0,
                dim=5, signal=1.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_generate_graph_exact_edge_budget():
    g, y = generate_graph(spec_with())
    assert g.num_edges == round(400 * 8.0 / 2)
    assert g.degrees().sum() == 2 * g.num_edges


def test_labels_are_contiguous_blocks():
    g, y = generate_graph(spec_with(n=10, num_classes=3, avg_degree=2.0))
    assert y.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_homophily_tracks_target():
    for target in (0.5, 0.7, 0.9):
        spec = spec_with(n=2000, num_classes=5, avg_degree=10.0,
                         target_homophily=target, seed=3)
        g, y = generate_graph(spec)
        measured = edge_homophily(g, y)
        assert measured == pytest.approx(target, abs=0.03)


def test_full_homophily_is_exact():
    g, y = generate_graph(spec_with(target_homophily=1.0, avg_degree=4.0))
    assert edge_homophily(g, y) == 1.0


def test_generate_graph_deterministic():
    g1, y1 = generate_graph(spec_with(seed=9))
    g2, y2 = generate_graph(spec_with(seed=9))
    g3, _ = generate_graph(spec_with(seed=10))
    assert np.array_equal(g1.edge_array(), g2.edge_array())
    assert np.array_equal(y1, y2)
    assert not np.array_equal(g1.edge_array(), g3.edge_array())


def test_generate_graph_infeasible_specs():
    with pytest.raises(InputError):
        generate_graph(spec_with(n=1))
    with pytest.raises(InputError):
        generate_graph(spec_with(target_homophily=0.0))
    with pytest.raises(InputError):
        generate_graph(spec_with(target_homophily=1.2))
    with pytest.raises(InputError):
        generate_graph(spec_with(avg_degree=0.0))
    with pytest.raises(InputError):
        generate_graph(spec_with(n=5, num_classes=3))  # a singleton class
    with pytest.raises(InputError) as exc:  # under one intra edge per class
        generate_graph(spec_with(n=10, num_classes=5, target_homophily=0.4))
    assert str(exc.value) == ("infeasible spec: homophily 0.4 with 10 nodes "
                              "over 5 classes")
    with pytest.raises(InputError):
        generate_graph(spec_with(n=4, num_classes=2, avg_degree=10.0))
    with pytest.raises(InputError):
        # all-intra budget exceeds intra-class capacity
        generate_graph(spec_with(n=4, num_classes=2, avg_degree=2.0,
                                 target_homophily=1.0))


def test_single_class_graph():
    g, y = generate_graph(spec_with(n=50, num_classes=1, avg_degree=4.0,
                                    target_homophily=0.5))
    assert (y == 0).all()
    assert edge_homophily(g, y) == 1.0


def test_features_shape_and_determinism():
    y = np.repeat([0, 1, 2], 100)
    x1 = generate_features(y, 7, 1.5, seed=4)
    x2 = generate_features(y, 7, 1.5, seed=4)
    x3 = generate_features(y, 7, 1.5, seed=5)
    assert x1.shape == (300, 7)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)


def test_zero_signal_is_standard_normal():
    y = np.repeat([0, 1], 2000)
    x = generate_features(y, 6, 0.0, seed=6)
    assert abs(x.mean()) < 0.03
    assert abs(x.std() - 1.0) < 0.03
    gap = x[y == 0].mean(axis=0) - x[y == 1].mean(axis=0)
    assert np.abs(gap).max() < 0.12


def test_class_means_sit_at_signal_radius():
    y = np.repeat([0, 1, 2], 1500)
    signal = 3.0
    x = generate_features(y, 8, signal, seed=7)
    for c in range(3):
        mean_c = x[y == c].mean(axis=0)
        assert np.linalg.norm(mean_c) == pytest.approx(signal, abs=0.25)
    # distinct classes get distinct directions
    m0 = x[y == 0].mean(axis=0)
    m1 = x[y == 1].mean(axis=0)
    assert np.linalg.norm(m0 - m1) > 0.5


@pytest.mark.parametrize("dim, signal, message", [
    (0, 1.0, "synthetic dim must be >= 1, got 0"),
    (2.5, 1.0, "synthetic dim must be an integer, got 2.5"),
    (True, 1.0, "synthetic dim must be an integer, got True"),
    (3, float("nan"), "synthetic signal must be finite and >= 0, got nan"),
    (3, float("inf"), "synthetic signal must be finite and >= 0, got inf"),
    (3, -0.5, "synthetic signal must be finite and >= 0, got -0.5"),
])
def test_features_refuse_the_settings_a_spec_refuses(dim, signal, message):
    with pytest.raises(InputError) as exc:
        generate_features(np.array([0, 1, 2]), dim, signal)
    assert str(exc.value) == message
    with pytest.raises(InputError) as exc:
        SyntheticSpec(n=3, num_classes=3, target_homophily=0.5, avg_degree=1.0,
                      dim=dim, signal=signal)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed, message", [
    (1.5, "synthetic seed must be an integer, got 1.5"),
    (True, "synthetic seed must be an integer, got True"),
    (-1, "synthetic seed must be >= 0, got -1"),
])
def test_features_refuse_the_seed_a_spec_refuses(seed, message):
    with pytest.raises(InputError) as exc:
        generate_features(np.array([0, 1, 2]), 3, 1.0, seed=seed)
    assert str(exc.value) == message
    with pytest.raises(InputError) as exc:
        SyntheticSpec(n=3, num_classes=3, target_homophily=0.5, avg_degree=1.0,
                      dim=3, signal=1.0, seed=seed)
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value", [
    ("n", 10.5), ("n", np.nan), ("num_classes", 2.5), ("num_classes", True),
    ("seed", 1.5),
])
def test_spec_counts_must_be_integers(field, value):
    settings = dict(n=10, num_classes=2, target_homophily=0.5, avg_degree=1.0,
                    dim=2, signal=1.0, seed=0)
    settings[field] = value
    with pytest.raises(InputError) as exc:
        generate_graph(SyntheticSpec(**settings))
    assert str(exc.value) == f"synthetic {field} must be an integer, got {value!r}"


def test_spec_counts_may_be_numpy_integers():
    g, y = generate_graph(SyntheticSpec(
        n=np.int64(10), num_classes=np.int32(2), target_homophily=0.5,
        avg_degree=1.0, dim=np.int64(2), signal=1.0, seed=np.uint8(3)))
    assert g.n == 10 and y.max() == 1


def test_features_refuse_labels_that_are_not_class_ids():
    with pytest.raises(InputError) as exc:
        generate_features(np.array([0.0, 1.5]), 3, 1.0)
    assert str(exc.value) == ("label at index 1 must be a whole number in "
                              "[0, inf), got 1.5")


def test_signal_shifts_share_the_noise_stream():
    # same seed, different signal: the noise draw is identical, so the
    # difference collapses to one constant offset per class
    y = np.repeat([0, 1, 2], 50)
    x0 = generate_features(y, 5, 0.0, seed=8)
    x2 = generate_features(y, 5, 2.0, seed=8)
    diff = x2 - x0
    for c in range(3):
        rows = diff[y == c]
        assert np.allclose(rows, rows[0])
        assert np.linalg.norm(rows[0]) == pytest.approx(2.0)


def test_features_reject_bad_dim():
    with pytest.raises(InputError):
        generate_features(np.array([0, 1]), 0, 1.0)
