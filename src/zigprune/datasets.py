"""Dataset generation and file formats.

Synthetic beds are generated in memory from a seed; the image-csv loader
accepts label,pixel0,...,pixelN rows (header row optional).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError


# ---------------------------------------------------------------------------
# group-sparse regression bed
# ---------------------------------------------------------------------------

@dataclass
class GroupSparseProblem:
    n_samples: int = 500
    n_groups: int = 10
    group_size: int = 5
    support_size: int = 4
    noise: float = 0.01

    @property
    def n_features(self) -> int:
        return self.n_groups * self.group_size


@dataclass
class RegressionData:
    X: np.ndarray
    y: np.ndarray
    groups: list[np.ndarray]
    support: list[int]
    w_true: np.ndarray
    w_oracle: np.ndarray
    oracle_objective: float

    def objective(self, w: np.ndarray) -> float:
        r = self.X @ w - self.y
        return 0.5 * float(r @ r) / self.X.shape[0]


def gen_synthetic_regression(problem: GroupSparseProblem, seed: int) -> RegressionData:
    """Draw y = X w* + noise with w* supported on a random group subset.

    The oracle is the least-squares solve restricted to the true support; its
    objective is the reference any trained sparse solution is scored against.
    """
    if problem.support_size > problem.n_groups:
        raise ConfigError("support_size cannot exceed n_groups")
    rng = np.random.default_rng(seed)
    n = problem.n_features
    X = rng.normal(size=(problem.n_samples, n))
    support = sorted(rng.choice(problem.n_groups, size=problem.support_size,
                                replace=False).tolist())
    groups = [np.arange(g * problem.group_size, (g + 1) * problem.group_size)
              for g in range(problem.n_groups)]
    w_true = np.zeros(n)
    for g in support:
        signs = rng.choice([-1.0, 1.0], size=problem.group_size)
        w_true[groups[g]] = signs * rng.uniform(0.5, 1.5, problem.group_size)
    y = X @ w_true + problem.noise * rng.normal(size=problem.n_samples)

    cols = np.concatenate([groups[g] for g in support]) if support else \
        np.empty(0, dtype=int)
    w_oracle = np.zeros(n)
    if len(cols):
        sol, *_ = np.linalg.lstsq(X[:, cols], y, rcond=None)
        w_oracle[cols] = sol
    data = RegressionData(X=X, y=y, groups=groups, support=support,
                          w_true=w_true, w_oracle=w_oracle, oracle_objective=0.0)
    data.oracle_objective = data.objective(w_oracle)
    return data


# ---------------------------------------------------------------------------
# classification bed
# ---------------------------------------------------------------------------

@dataclass
class ClassificationData:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int


# one channel-mean triple per class; scaled so channel averages separate the
# classes but per-pixel noise keeps the task imperfect
_CLASS_MEANS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [-1.0, -1.0, -1.0],
])


def gen_synthetic_classification(seed: int, n_train: int = 8000,
                                 n_test: int = 2000, noise: float = 1.0,
                                 mean_scale: float = 0.12,
                                 image=(3, 16, 16)) -> ClassificationData:
    """Gaussian blobs rendered as images with class-dependent channel means."""
    rng = np.random.default_rng(seed)
    n_classes = _CLASS_MEANS.shape[0]
    c, h, w = image

    def draw(n):
        labels = rng.integers(0, n_classes, size=n)
        means = mean_scale * _CLASS_MEANS[labels][:, :c]
        x = rng.normal(size=(n, c, h, w)) * noise
        x += means[:, :, None, None]
        return x, labels

    x_train, y_train = draw(n_train)
    x_test, y_test = draw(n_test)
    return ClassificationData(x_train, y_train, x_test, y_test, n_classes)


# ---------------------------------------------------------------------------
# image csv
# ---------------------------------------------------------------------------

def _read_label_pixel_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    labels = []
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                label = int(row[0])
            except ValueError:
                continue  # header row
            labels.append(label)
            rows.append([float(v) for v in row[1:]])
    x = np.asarray(rows, dtype=float)
    return x, np.asarray(labels, dtype=int)


def load_image_csv(directory: str, scale: float = 1.0 / 255.0) -> ClassificationData:
    """Load train.csv / test.csv of label,pixel... rows as (N,1,H,W) images."""
    def load(name):
        x, y = _read_label_pixel_csv(os.path.join(directory, name))
        side = math.isqrt(x.shape[1])
        if side * side != x.shape[1]:
            raise ConfigError(f"{name}: {x.shape[1]} pixels is not a square image")
        return (x * scale).reshape(-1, 1, side, side), y
    x_train, y_train = load("train.csv")
    x_test, y_test = load("test.csv")
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    return ClassificationData(x_train, y_train, x_test, y_test, n_classes)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Shuffled index batches; one permutation draw per epoch."""
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]
