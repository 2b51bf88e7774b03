"""Dataset generation and file formats.

Synthetic beds are generated in memory from a seed; the image-csv loader
accepts label,pixel0,...,pixelN rows (header row optional).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Annotated, Iterator

import numpy as np

from .errors import (ConfigError, Count, NonNegative, Size, check_fields, check_value,
                     field_types)


# ---------------------------------------------------------------------------
# group-sparse regression bed
# ---------------------------------------------------------------------------

@dataclass
class GroupSparseProblem:
    n_samples: Size = 500
    n_groups: Size = 10
    group_size: Size = 5
    support_size: Count = 4
    noise: NonNegative = 0.01

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


def gen_synthetic_classification(
        seed: int, n_train: Count = 8000, n_test: Count = 2000, noise: NonNegative = 1.0,
        mean_scale: float = 0.12,
        image: tuple[Annotated[int, "[1, 3]"], Size, Size] = (3, 16, 16),
) -> ClassificationData:
    """Gaussian blobs rendered as images with class-dependent channel means:
    ``image`` is (channels, height, width), at most one channel per mean."""
    rng = np.random.default_rng(seed)
    n_classes = _CLASS_MEANS.shape[0]
    c, h, w = image

    def draw(n):
        labels = rng.integers(0, n_classes, size=n)
        means = mean_scale * _CLASS_MEANS[labels][:, :c]
        x = rng.normal(size=(n, c, h, w))
        x *= noise
        x += means[:, :, None, None]
        return x, labels

    x_train, y_train = draw(n_train)
    x_test, y_test = draw(n_test)
    return ClassificationData(x_train, y_train, x_test, y_test, n_classes)


# ---------------------------------------------------------------------------
# image csv
# ---------------------------------------------------------------------------

def _read_label_pixel_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of label,pixel...; the first non-empty row is a header when its
    label is not an integer. A ConfigError names the path when the file
    cannot be read, and the line of a row that is not a sample."""
    labels = []
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(row for row in reader if row):
                where = f"{path}, line {reader.line_num}"
                try:
                    label = int(row[0])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise ConfigError(f"{where}: label {row[0]!r} is not an integer") from None
                if label < 0:
                    raise ConfigError(f"{where}: label {label} is negative")
                try:
                    pixels = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise ConfigError(f"{where}: a pixel is not a number ({exc})") from None
                if rows and len(pixels) != len(rows[0]):
                    raise ConfigError(f"{where}: {len(pixels)} pixels, but the first "
                                      f"row has {len(rows[0])}")
                labels.append(label)
                rows.append(pixels)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None
    x = np.asarray(rows, dtype=float)
    return x, np.asarray(labels, dtype=int)


PIXEL_SCALE = 1.0 / 255.0  # 8-bit pixel values to [0, 1]


def load_image_csv(directory: str) -> ClassificationData:
    """Load train.csv / test.csv of label,pixel... rows as (N,1,H,W) images,
    pixels times ``PIXEL_SCALE``."""
    def load(name):
        x, y = _read_label_pixel_csv(os.path.join(directory, name))
        if not len(y):
            raise ConfigError(f"{name}: no samples")
        side = math.isqrt(x.shape[1])
        if side * side != x.shape[1]:
            raise ConfigError(f"{name}: {x.shape[1]} pixels is not a square image")
        return (x * PIXEL_SCALE).reshape(-1, 1, side, side), y
    x_train, y_train = load("train.csv")
    x_test, y_test = load("test.csv")
    n_classes = int(max(y_train.max(), y_test.max())) + 1
    return ClassificationData(x_train, y_train, x_test, y_test, n_classes)


# Per dataset kind: the annotation of each key but "kind", and the keys it needs.
DATASET_SPECS = {
    "synthetic-classification": (
        {k: t for k, t in field_types(gen_synthetic_classification).items() if k != "seed"}, ()),
    "synthetic-regression": (
        {**field_types(GroupSparseProblem), "lambda_sweep": list[NonNegative]}, ()),
    "image-csv": ({"dir": str}, ("dir",)),
}


def dataset_spec(spec: dict) -> tuple[str, dict]:
    """A dataset spec's kind and its other keys, checked against the kind's
    entry of ``DATASET_SPECS``."""
    spec = dict(check_value(spec, dict, "dataset"))
    kind = check_value(spec.pop("kind", None),
                       Annotated[str, tuple(DATASET_SPECS)], "dataset 'kind'")
    types, required = DATASET_SPECS[kind]
    return kind, check_fields(spec, types, kind, required=required)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Shuffled index batches; one permutation draw per epoch."""
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]
