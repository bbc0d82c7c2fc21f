"""Synthetic Gaussian transfer tasks, subset partitioning, and subset selection.

Tasks are pairs of classification datasets: a source built from unit-norm
random class means, and a target whose means are a rotated and offset copy of
the source means. Everything is deterministic per seed.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .linalg import Rng
from .losses import scl_loss_pass
from .model import ModelParams, forward


@dataclass
class Dataset:
    x: np.ndarray  # (samples, dim)
    y: np.ndarray  # (samples,) int labels
    num_classes: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64)
        if len(self.x) != len(self.y):
            raise InputError("x and y lengths differ")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise InputError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], self.num_classes)


@dataclass(frozen=True)
class ShiftConfig:
    rotation_seed: int
    magnitude: float


def _unit_rows(rng: Rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rotation(dim: int, shift: ShiftConfig) -> np.ndarray:
    """Orthogonal matrix via the Cayley transform of a scaled skew matrix."""
    rng = Rng(shift.rotation_seed)
    b = rng.standard_normal((dim, dim))
    skew = 0.5 * shift.magnitude * (b - b.T) / dim
    eye = np.eye(dim)
    return np.linalg.solve(eye - skew, eye + skew)


@dataclass(frozen=True)
class TaskPair:
    """A source dataset and a target train/test pair. Each set is built on first
    read from its own child stream of the seed (``child(1)`` to ``child(3)``), so a
    command builds only the sets it reads, and skipping one changes no other draw."""
    dim: int
    classes: int
    per_class: int
    noise_sigma: float
    shift: ShiftConfig
    seed: int

    @functools.cached_property
    def _source_means(self) -> np.ndarray:
        return _unit_rows(Rng(self.seed).child(0), self.classes, self.dim)

    @functools.cached_property
    def _target_means(self) -> np.ndarray:
        """The source means, rotated and offset (a copy when the shift is zero)."""
        shift = self.shift
        if shift.magnitude == 0.0:
            return self._source_means.copy()
        offset_rng = Rng(shift.rotation_seed).child(1)
        return (self._source_means @ _rotation(self.dim, shift).T
                + shift.magnitude * _unit_rows(offset_rng, self.classes, self.dim))

    def _sample(self, tag: int, means: np.ndarray) -> Dataset:
        y = np.repeat(np.arange(self.classes), self.per_class)
        noise = Rng(self.seed).child(tag).standard_normal((len(y), self.dim))
        return Dataset(means[y] + self.noise_sigma * noise, y, self.classes)

    @functools.cached_property
    def source(self) -> Dataset:
        return self._sample(1, self._source_means)

    @functools.cached_property
    def target_train(self) -> Dataset:
        return self._sample(2, self._target_means)

    @functools.cached_property
    def target_test(self) -> Dataset:
        return self._sample(3, self._target_means)


def gen_task(dim: int, classes: int, per_class: int, noise_sigma: float,
             shift: ShiftConfig, seed: int) -> TaskPair:
    """Gaussian class clusters; target means are a rotated + offset copy of source means.
    The sets are drawn on first read (see ``TaskPair``)."""
    if classes < 2 or per_class < 2:
        raise ConfigError("need at least 2 classes and 2 samples per class")
    if dim < 1 or noise_sigma < 0:
        raise ConfigError("dim must be >= 1 and noise_sigma >= 0")
    return TaskPair(dim, classes, per_class, noise_sigma, shift, seed)


def partition_subsets(data: Dataset, n: int, seed: int | Rng) -> list[np.ndarray]:
    """Seeded random split of the row indices of ``data`` into n index arrays whose
    sizes differ by at most one; no rows are copied."""
    if not 1 <= n <= len(data):
        raise ConfigError(f"n={n} out of range for {len(data)} samples")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    return np.array_split(rng.permutation(len(data)), n)


def select_mask_subset(pre: ModelParams, data: Dataset, subsets: list[np.ndarray], tau: float,
                       z1_out: np.ndarray | None = None) -> tuple[int, Dataset]:
    """Pick the subset (an index array into ``data``, as ``partition_subsets`` gives)
    whose per-sample contrastive loss at the given weights is minimal; ties go to
    the lowest index. Returns its index and its rows of ``data``. Each subset's rows
    are gathered when it is scored, not all up front, and no parameters are updated.
    Only the loss is formed (``scl_loss_pass``, which consumes the subset's head input,
    an array the forward allocated or the subset's gathered rows), not its gradient.

    Given ``z1_out`` (``len(data)`` rows of layer 1's width, for a model of three or
    more layers), each subset is forwarded through layers 0 and 1 as a model of their
    own (``ModelParams.layer_range``), its layer-1 pre-activation is written into its
    rows of ``z1_out``, and the forward goes on from its ReLU; the losses are the
    dense forward's, bit for bit. Subsets that cover ``data`` leave in ``z1_out`` the
    ``z1`` that ``model.row_anchor`` takes, and the chosen subset's rows of it are what
    ``masking.scl_gradients`` takes to score that subset. A non-finite loss (as a tiny
    ``tau`` gives) raises NumericError."""
    if z1_out is not None:
        bottom, top = pre.layer_range(0, 2), pre.layer_range(2, len(pre.layers))
    losses = []
    for idx in subsets:
        x = data.x[idx]
        if z1_out is None:
            _, features, _ = forward(pre, x)
        else:
            z1, _, _ = forward(bottom, x)
            z1_out[idx] = z1
            _, features, _ = forward(top, np.maximum(z1, 0.0, out=z1))
        losses.append(scl_loss_pass(features, data.y[idx], tau).loss / len(idx))
    if not np.isfinite(losses).all():
        raise NumericError(f"non-finite contrastive loss of a scoring subset at tau={tau}")
    best = int(np.argmin(losses))
    return best, data.take(subsets[best])


def save_dataset_csv(data: Dataset, path: str | Path) -> None:
    """Write the header ``y,x0,x1,...`` and one line per sample, its label then its
    features in ``repr``, the bytes ``csv.writer`` writes for these rows (no cell needs
    quoting), joined here as strings."""
    header = ["y", *(f"x{i}" for i in range(data.x.shape[1]))]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, (label, *row))) + "\r\n"
                      for label, row in zip(data.y.tolist(), data.x.tolist()))


def load_dataset_csv(path: str | Path) -> Dataset:
    """Read a CSV written by save_dataset_csv; malformed files raise InputError.

    numpy's C parser reads the rows. The label column must hold integers,
    every row the header's width, and a blank line anywhere is an error. The
    class count is one more than the largest label.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
        header = next(csv.reader(lines[:1]), [])
    except (OSError, ValueError, csv.Error) as exc:
        raise InputError(f"cannot read dataset {path}: {exc}") from exc
    if not header or header[0] != "y":
        raise InputError(f"{path}: expected header starting with 'y'")
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    if not body:
        raise InputError(f"{path}: no data rows")
    if not all(body):
        raise InputError(f"{path}: line {body.index('') + 2} is blank")
    row = np.dtype([("y", np.int64), ("x", np.float64, (len(header) - 1,))])
    try:
        table = np.loadtxt(body, dtype=row, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError as exc:
        raise InputError(f"{path}: non-numeric cell, non-integer label or ragged row: "
                         f"{exc}") from exc
    x, y = table["x"].copy(), table["y"].copy()
    if not np.all(np.isfinite(x)):
        raise InputError(f"{path}: non-finite feature value")
    return Dataset(x, y, int(y.max()) + 1)
