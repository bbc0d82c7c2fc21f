"""Selection scores, mask construction, objective accounting, and storage costs.

A mask decides which weight entries train. Row and column masks store only
sorted index lists; the per-neuron sparse variant stores one index list per
row; ``full`` marks an entirely trainable layer (canonical form for the head)
and costs zero storage.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .fileio import atomic_open
from .linalg import frobenius_sq
from .losses import scl_loss
from .model import ModelParams, backward, forward

SELECTION_VARIANTS = ("row", "col", "sparse")  # the variants scoring can build
VARIANTS = (*SELECTION_VARIANTS, "full")


def _check_indices(indices, bound: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ConfigError(f"{what} indices must be strictly increasing: {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= bound):
        raise ConfigError(f"{what} indices out of bounds [0, {bound}): {idx}")
    return idx


@dataclass(frozen=True)
class LayerMask:
    """Per-layer selection of trainable weight entries.

    ``indices`` is a sorted int tuple for row/col, a tuple of per-row sorted
    int tuples for sparse, and None for full.
    """
    variant: str
    shape: tuple[int, int]
    indices: object = None

    def __post_init__(self):
        rows, cols = self.shape
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown mask variant {self.variant!r}")
        if self.variant == "row":
            object.__setattr__(self, "indices", _check_indices(self.indices, rows, "row"))
        elif self.variant == "col":
            object.__setattr__(self, "indices", _check_indices(self.indices, cols, "col"))
        elif self.variant == "sparse":
            if len(self.indices) != rows:
                raise ConfigError(f"sparse mask needs {rows} per-row lists")
            fixed = tuple(_check_indices(r, cols, f"sparse row {i}")
                          for i, r in enumerate(self.indices))
            object.__setattr__(self, "indices", fixed)
        elif self.indices is not None:
            raise ConfigError("full mask carries no indices")

    @functools.cached_property
    def trainable(self) -> tuple[object, object]:
        """Index of the trainable weight entries and of the trainable biases.

        ``weight[index]`` (``bias[index]``) is exactly the entries the mask
        leaves trainable: row and col masks give index arrays, ``full`` the
        whole array, sparse masks a boolean matrix. A bias trains
        when its row holds selected weights; column masks leave all biases
        frozen (a column targets no single output neuron). Built on first use
        and kept with the mask; every other reading of a mask derives from it.
        """
        if self.variant == "full":
            return ..., ...
        if self.variant == "row":
            rows = np.array(self.indices, dtype=np.intp)
            return rows, rows
        if self.variant == "col":
            return (slice(None), np.array(self.indices, dtype=np.intp)), np.zeros(0, np.intp)
        bits = np.zeros(self.shape, dtype=bool)
        for i, cols_i in enumerate(self.indices):
            bits[i, list(cols_i)] = True
        return bits, bits.any(axis=1)

    def to_dense(self) -> np.ndarray:
        """0/1 matrix of the trainable weight entries."""
        m = np.zeros(self.shape)
        m[self.trainable[0]] = 1.0
        return m

    def bias_mask(self) -> np.ndarray:
        """0/1 trainability of each output neuron's bias."""
        b = np.zeros(self.shape[0])
        b[self.trainable[1]] = 1.0
        return b

    def storage_bits(self) -> int:
        rows, cols = self.shape
        if self.variant == "full":
            return 0
        if self.variant == "row":
            return len(self.indices) * _index_bits(rows)
        if self.variant == "col":
            return len(self.indices) * _index_bits(cols)
        return sum(len(r) for r in self.indices) * _index_bits(cols)


def _index_bits(n: int) -> int:
    """Bits to store one index into n positions."""
    return math.ceil(math.log2(n))


def storage_comparison(mask: LayerMask, k: int) -> dict[str, int]:
    """Storage bits of the mask next to the other layouts of its shape at budget k.

    ``row`` keeps k rows, ``sparse`` k entries in every row, ``dense`` is
    the full bit matrix.
    """
    rows, cols = mask.shape
    return {"selected": mask.storage_bits(),
            "row": min(k, rows) * _index_bits(rows),
            "sparse": rows * min(k, cols) * _index_bits(cols),
            "dense": rows * cols}


def full_mask(shape: tuple[int, int]) -> LayerMask:
    return LayerMask("full", shape)


def row_scores(h: np.ndarray) -> np.ndarray:
    """Per-row sum of squared entries: the selection statistic."""
    return np.sum(h * h, axis=1)


def col_scores(h: np.ndarray) -> np.ndarray:
    """Per-column sum of squared entries."""
    return np.sum(h * h, axis=0)


def topk_indices(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest scores, ties broken by lowest index, sorted."""
    scores = np.asarray(scores)
    if not 1 <= k <= len(scores):
        raise ConfigError(f"k={k} out of range for {len(scores)} scores")
    order = np.argsort(-scores, kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def build_mask(h: np.ndarray, k: int, variant: str) -> LayerMask:
    """Mask from a gradient matrix: top-k rows, columns, or per-row entries."""
    rows, cols = h.shape
    if variant == "row":
        return LayerMask("row", (rows, cols), topk_indices(row_scores(h), k))
    if variant == "col":
        return LayerMask("col", (rows, cols), topk_indices(col_scores(h), k))
    if variant == "sparse":
        per_row = tuple(topk_indices(np.abs(h[i]), k) for i in range(rows))
        return LayerMask("sparse", (rows, cols), per_row)
    raise ConfigError(f"build_mask supports row/col/sparse, got {variant!r}")


def mask_objective(h: np.ndarray, mask: LayerMask) -> float:
    """Squared norm of the gradient energy the mask discards."""
    if h.shape != mask.shape:
        raise ShapeError(f"gradient shape {h.shape} != mask shape {mask.shape}")
    dropped = h.copy()
    dropped[mask.trainable[0]] = 0.0
    return frobenius_sq(dropped)


def retained_energy(h: np.ndarray, mask: LayerMask) -> float:
    """Squared norm of the kept gradient entries; complements mask_objective."""
    if h.shape != mask.shape:
        raise ShapeError(f"gradient shape {h.shape} != mask shape {mask.shape}")
    idx = mask.trainable[0]
    kept = np.zeros_like(h)
    kept[idx] = h[idx]
    return frobenius_sq(kept)


def brute_force_best_rows(h: np.ndarray, k: int) -> tuple[int, ...]:
    """Exhaustive row-subset minimizer of mask_objective; oracle only.

    Enumerates in lexicographic order and keeps the first optimum.
    """
    rows = h.shape[0]
    if rows > 20:
        raise ConfigError(f"enumeration guard: {rows} rows > 20")
    if not 1 <= k <= rows:
        raise ConfigError(f"k={k} out of range for {rows} rows")
    best, best_obj = None, np.inf
    for combo in itertools.combinations(range(rows), k):
        obj = mask_objective(h, LayerMask("row", h.shape, combo))
        if obj < best_obj:
            best, best_obj = combo, obj
    return best


@dataclass(frozen=True)
class GradientMaskSet:
    """One LayerMask per model layer; the head layer is always full."""
    layers: tuple[LayerMask, ...]

    @staticmethod
    def all_full(model: ModelParams) -> "GradientMaskSet":
        return GradientMaskSet(tuple(full_mask(l.weight.shape) for l in model.layers))

    @staticmethod
    def head_only(model: ModelParams) -> "GradientMaskSet":
        """Linear-probe masks: nothing trainable except the head."""
        masks = [LayerMask("row", l.weight.shape, ()) for l in model.layers[:-1]]
        masks.append(full_mask(model.layers[-1].weight.shape))
        return GradientMaskSet(tuple(masks))

    def total_storage_bits(self) -> int:
        return sum(m.storage_bits() for m in self.layers)

    @functools.cached_property
    def lowest_trainable(self) -> int:
        """The lowest layer with a trainable entry, or the layer count: backprop stops there."""
        return next((i for i, m in enumerate(self.layers)
                     if np.broadcast_to(False, m.shape)[m.trainable[0]].size), len(self.layers))


def scl_gradients(pre: ModelParams, x: np.ndarray, y: np.ndarray, tau: float) -> list[np.ndarray]:
    """Mean contrastive-loss weight gradient per layer at the given parameters.

    The head is excluded from the loss path, so its entry is all zeros.
    """
    _, features, cache = forward(pre, x)
    _, d_features = scl_loss(features, y, tau)
    grads = backward(pre, cache, GradientMaskSet.all_full(pre), d_features=d_features / len(y))
    return [g.weight for g in grads.layers]


def check_budget(shapes: list[tuple[int, int]], k: int, variant: str) -> None:
    """Refuse an unknown variant, or a k some maskable layer (all but the last) cannot hold."""
    if variant not in SELECTION_VARIANTS:
        raise ConfigError(f"unknown selection variant {variant!r}")
    for i, (rows, cols) in enumerate(shapes[:-1]):
        limit = rows if variant == "row" else cols
        if not 1 <= k <= limit:
            raise ConfigError(f"k={k} out of range for layer {i} with shape {rows}x{cols}")


def masks_from_gradients(gradients: list[np.ndarray], k: int, variant: str) -> GradientMaskSet:
    """One mask per maskable layer from per-layer gradients, head last and full."""
    check_budget([h.shape for h in gradients], k, variant)
    masks = [build_mask(h, k, variant) for h in gradients[:-1]]
    masks.append(full_mask(gradients[-1].shape))
    return GradientMaskSet(tuple(masks))


def compute_mask_set(pre: ModelParams, x: np.ndarray, y: np.ndarray,
                     k: int, variant: str, tau: float) -> GradientMaskSet:
    """Single pass over the mask data; builds one mask per maskable layer.

    The head is never scored: it is freshly initialized per task and stays
    fully trainable.
    """
    if variant == "full":
        return GradientMaskSet.all_full(pre)
    if len(y) == 0:
        raise ConfigError("mask data must be non-empty")
    return masks_from_gradients(scl_gradients(pre, x, y, tau), k, variant)


def trainable_fraction(model: ModelParams, masks: GradientMaskSet) -> float:
    """Share of all parameters (weights and biases) the masks leave trainable."""
    if len(masks.layers) != len(model.layers):
        raise ShapeError("mask count does not match layer count")
    selected = 0
    for layer, mask in zip(model.layers, masks.layers):
        if layer.weight.shape != mask.shape:
            raise ShapeError(f"mask shape {mask.shape} != weight shape {layer.weight.shape}")
        wi, bi = mask.trainable
        selected += layer.weight[wi].size + layer.bias[bi].size
    return selected / model.param_count()


def masks_to_doc(masks: GradientMaskSet) -> dict:
    """JSON document of a mask set: one entry per layer and the total storage."""
    return {"layers": [{"variant": m.variant, "shape": list(m.shape),
                        "storage_bits": m.storage_bits(), "indices": m.indices}
                       for m in masks.layers],
            "storage_bits": masks.total_storage_bits()}


def save_masks(masks: GradientMaskSet, path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(masks_to_doc(masks), indent=1))
