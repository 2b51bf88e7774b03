import numpy as np
import pytest

from zigprune.datasets import (
    GroupSparseProblem,
    gen_synthetic_classification,
    gen_synthetic_regression,
    load_image_csv,
    minibatches,
)


def test_noiseless_oracle_recovers_truth():
    problem = GroupSparseProblem(n_samples=400, n_groups=10, group_size=5,
                                 support_size=4, noise=0.0)
    data = gen_synthetic_regression(problem, seed=3)
    assert np.abs(data.w_oracle - data.w_true).max() < 1e-8
    assert data.oracle_objective < 1e-16


def test_oracle_objective_reference_value():
    problem = GroupSparseProblem(n_samples=500, n_groups=10, group_size=5,
                                 support_size=4, noise=0.01)
    data = gen_synthetic_regression(problem, seed=3)
    # restricted solve beats the truth vector on the noisy sample
    assert data.oracle_objective <= data.objective(data.w_true) + 1e-12
    assert 0.0 < data.oracle_objective < 1e-3
    # regenerating with the same seed reproduces it exactly
    again = gen_synthetic_regression(problem, seed=3)
    assert again.oracle_objective == data.oracle_objective
    assert np.array_equal(again.X, data.X)


def test_support_varies_with_seed_and_stays_sorted():
    problem = GroupSparseProblem()
    seen = set()
    for seed in range(6):
        data = gen_synthetic_regression(problem, seed=seed)
        assert data.support == sorted(data.support)
        assert len(data.support) == problem.support_size
        seen.add(tuple(data.support))
        # w_true supported exactly on the declared groups
        for g in range(problem.n_groups):
            vals = data.w_true[data.groups[g]]
            assert bool(vals.any()) == (g in data.support)
    assert len(seen) > 1


def test_classification_shapes_and_determinism():
    a = gen_synthetic_classification(seed=5, n_train=64, n_test=32)
    b = gen_synthetic_classification(seed=5, n_train=64, n_test=32)
    assert a.x_train.shape == (64, 3, 16, 16)
    assert a.n_classes == 4
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)
    assert set(np.unique(a.y_train)) <= {0, 1, 2, 3}


def test_classification_is_learnable_but_not_trivial():
    data = gen_synthetic_classification(seed=7, n_train=2000, n_test=500)
    # channel means separate classes: a nearest-mean rule should beat chance
    mu = data.x_train.mean(axis=(2, 3))
    centers = np.stack([mu[data.y_train == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((data.x_test.mean(axis=(2, 3))[:, None, :]
                       - centers[None]) ** 2).sum(-1), axis=1)
    acc = (pred == data.y_test).mean()
    assert acc > 0.8
    assert acc < 1.0


def test_image_csv_loader(tmp_path):
    rng = np.random.default_rng(1)
    for name, n in (("train.csv", 6), ("test.csv", 4)):
        rows = ["label," + ",".join(f"pixel{i}" for i in range(16))]
        for _ in range(n):
            label = rng.integers(0, 3)
            pix = rng.integers(0, 256, 16)
            rows.append(",".join([str(label)] + [str(v) for v in pix]))
        (tmp_path / name).write_text("\n".join(rows), encoding="utf-8")
    data = load_image_csv(str(tmp_path))
    assert data.x_train.shape == (6, 1, 4, 4)
    assert data.x_test.shape == (4, 1, 4, 4)
    assert data.x_train.max() <= 1.0


def test_minibatches_cover_everything_once():
    rng = np.random.default_rng(2)
    idx = np.concatenate(list(minibatches(103, 20, rng)))
    assert sorted(idx.tolist()) == list(range(103))


def test_permuting_group_labels_permutes_oracle_support():
    problem = GroupSparseProblem(n_samples=300, n_groups=6, group_size=3,
                                 support_size=2, noise=0.0)
    data = gen_synthetic_regression(problem, seed=11)
    perm = np.array([3, 0, 5, 1, 4, 2])
    cols = np.concatenate([data.groups[g] for g in perm])
    X2 = data.X[:, cols]
    w2 = data.w_true[cols]
    # solving on the permuted design recovers the permuted support exactly
    sol, *_ = np.linalg.lstsq(X2, data.y, rcond=None)
    support2 = sorted(int(np.where(perm == g)[0][0]) for g in data.support)
    nonzero = [g for g in range(6)
               if np.linalg.norm(sol[g * 3:(g + 1) * 3]) > 1e-6]
    assert nonzero == support2
    assert np.abs(sol - w2).max() < 1e-8
