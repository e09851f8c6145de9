"""The four stratified draws against reference copies of their original loops.

``stratified_split``, ``apply_masking``, ``carve_validation`` and
``stratified_kfold`` share one per-class partitioner. The references below are
the loops each function had before that, kept verbatim in behavior: every
index array must come out equal, dtype included, for the same seeds.
"""

import numpy as np

from gcndiag.protocol import (TRAIN_FRACTION, VAL_FRACTION, apply_masking,
                              carve_validation, derive_seed, stratified_kfold,
                              stratified_split)

MASKING_RATES = (0.0, 0.37, 0.5, 0.9)


def ref_stratified_split(y, seed):
    rng = np.random.default_rng(seed)
    train_part, test_part = [], []
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        n_train = int(np.floor(members.size * TRAIN_FRACTION + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)
        perm = rng.permutation(members)
        train_part.append(perm[:n_train])
        test_part.append(perm[n_train:])
    return np.sort(np.concatenate(train_part)), np.sort(np.concatenate(test_part))


def ref_apply_masking(y, train_idx, masking_rate, seed):
    kept = []
    for c in np.unique(y[train_idx]):
        members = np.sort(train_idx[y[train_idx] == c])
        rng = np.random.default_rng(derive_seed(seed, "mask-class", int(c)))
        perm = rng.permutation(members)
        n_keep = max(1, int(np.floor((1.0 - masking_rate) * members.size + 0.5)))
        kept.append(perm[:n_keep])
    return np.sort(np.concatenate(kept))


def ref_carve_validation(y, visible_idx, seed):
    rng = np.random.default_rng(seed)
    sub_part, val_part = [], []
    for c in np.unique(y[visible_idx]):
        members = np.sort(visible_idx[y[visible_idx] == c])
        perm = rng.permutation(members)
        n_val = min(members.size - 1,
                    max(1, int(np.floor(members.size * VAL_FRACTION + 0.5))))
        val_part.append(perm[:n_val])
        sub_part.append(perm[n_val:])
    return np.sort(np.concatenate(sub_part)), np.sort(np.concatenate(val_part))


def ref_stratified_kfold(y, indices, folds, rng):
    assignment = np.empty(indices.size, dtype=np.int64)
    for c in np.unique(y[indices]):
        members = np.flatnonzero(y[indices] == c)
        perm = rng.permutation(members)
        assignment[perm] = np.arange(perm.size) % folds
    out = []
    for f in range(folds):
        out.append((indices[assignment != f], indices[assignment == f]))
    return out


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def random_labels(rng, trial):
    """Labels over 2-11 classes and up to 3,000 nodes, every class with at
    least 2 members; every fourth vector has a class of exactly 2, whose one
    training node is its one visible node at every masking rate."""
    num_classes = 2 + trial % 10
    n = int(rng.integers(4 * num_classes, 3001))
    y = rng.choice(num_classes, size=n, p=rng.dirichlet(np.ones(num_classes)))
    y[:2 * num_classes] = np.repeat(np.arange(num_classes), 2)
    if trial % 4 == 0:
        y[y == num_classes - 1] = 0
        y[:2] = num_classes - 1
    return rng.permutation(y)


def test_partitions_match_the_reference_loops():
    single_visible = 0
    for trial in range(240):
        rng = np.random.default_rng(trial)
        y = random_labels(rng, trial)
        seed = int(rng.integers(2**63))

        train, test = stratified_split(y, seed)
        ref_train, ref_test = ref_stratified_split(y, seed)
        assert_same(train, ref_train)
        assert_same(test, ref_test)

        shuffled_train = rng.permutation(train)
        for rate in MASKING_RATES:
            visible = apply_masking(y, shuffled_train, rate, seed)
            assert_same(visible, ref_apply_masking(y, shuffled_train, rate, seed))
            single_visible += int((np.bincount(y[visible]) == 1).any())

            shuffled_visible = rng.permutation(visible)
            for got, want in zip(
                    carve_validation(y, shuffled_visible, seed + 1),
                    ref_carve_validation(y, shuffled_visible, seed + 1)):
                assert_same(got, want)

            folds = 2 + trial % 4
            got = stratified_kfold(y, shuffled_visible, folds,
                                   np.random.default_rng(seed + 2))
            want = ref_stratified_kfold(y, shuffled_visible, folds,
                                        np.random.default_rng(seed + 2))
            assert len(got) == len(want) == folds
            for (got_tr, got_val), (want_tr, want_val) in zip(got, want):
                assert_same(got_tr, want_tr)
                assert_same(got_val, want_val)
    assert single_visible >= 60 * len(MASKING_RATES)
