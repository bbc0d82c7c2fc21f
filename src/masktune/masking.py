"""Selection scores, mask construction, objective accounting, and storage costs.

A mask decides which weight entries train. Row and column masks hold a
sorted ``intp`` array of their rows or columns; the per-neuron sparse variant
holds the boolean matrix of its trainable entries; ``full`` marks an entirely
trainable layer (canonical form for the head) and costs zero storage. The
per-row index lists of a sparse mask are built only for its JSON document.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .fileio import write_json
from .losses import scl_loss
from .model import (ForwardCache, Layer, ModelParams, _dense, backward, forward, param_offsets,
                    row_chunks)

SELECTION_VARIANTS = ("row", "col", "sparse")  # the variants scoring can build
VARIANTS = (*SELECTION_VARIANTS, "full")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_indices(index, bound: int, what: str) -> np.ndarray:
    """A read-only ``intp`` copy of a strictly increasing index list into ``bound`` positions."""
    idx = np.array(index)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ConfigError(f"{what} indices must be a list of integers: {index!r}")
    idx = idx.astype(np.intp, copy=False)  # np.array made the copy
    if np.any(idx[1:] <= idx[:-1]):
        raise ConfigError(f"{what} indices must be strictly increasing: {idx.tolist()}")
    if idx.size and (idx[0] < 0 or idx[-1] >= bound):
        raise ConfigError(f"{what} indices out of bounds [0, {bound}): {idx.tolist()}")
    return _frozen(idx)


@dataclass(frozen=True, eq=False)
class LayerMask:
    """Per-layer selection of trainable weight entries.

    ``index`` is a read-only copy of what the variant selects: a strictly
    increasing ``intp`` array of rows or columns for row/col, the boolean
    matrix of trainable entries (of ``shape``) for sparse, and None for full.
    Masks compare by identity, as their index is an array.
    """
    variant: str
    shape: tuple[int, int]
    index: np.ndarray | None = None

    def __post_init__(self):
        rows, cols = self.shape
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown mask variant {self.variant!r}")
        if self.variant == "row":
            object.__setattr__(self, "index", _check_indices(self.index, rows, "row"))
        elif self.variant == "col":
            object.__setattr__(self, "index", _check_indices(self.index, cols, "col"))
        elif self.variant == "sparse":
            bits = self.index
            if not (isinstance(bits, np.ndarray) and bits.dtype == bool
                    and bits.shape == self.shape):
                raise ConfigError(f"sparse mask needs a {rows}x{cols} boolean matrix")
            object.__setattr__(self, "index", _frozen(bits.copy()))
        elif self.index is not None:
            raise ConfigError("full mask carries no indices")

    @functools.cached_property
    def trainable(self) -> tuple[object, object]:
        """Index of the trainable weight entries and of the trainable biases.

        ``weight[index]`` (``bias[index]``) is exactly the entries the mask
        leaves trainable: row and col masks give their index arrays, ``full``
        the whole array, sparse masks their boolean matrix. A bias trains
        when its row holds selected weights; column masks leave all biases
        frozen (a column targets no single output neuron). Every array is
        read-only. Built on first use and kept with the mask; every other
        reading of a mask derives from it.
        """
        if self.variant == "full":
            return ..., ...
        if self.variant == "row":
            return self.index, self.index
        if self.variant == "col":
            return (slice(None), self.index), _frozen(np.zeros(0, np.intp))
        return self.index, _frozen(self.index.any(axis=1))

    def to_dense(self) -> np.ndarray:
        """0/1 matrix of the trainable weight entries."""
        m = np.zeros(self.shape)
        m[self.trainable[0]] = 1.0
        return m

    def storage_bits(self) -> int:
        rows, cols = self.shape
        if self.variant == "full":
            return 0
        if self.variant == "row":
            return self.index.size * _index_bits(rows)
        if self.variant == "col":
            return self.index.size * _index_bits(cols)
        return int(np.count_nonzero(self.index)) * _index_bits(cols)


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
    """Per-row sum of squared entries, the selection statistic, a block of rows at a time
    (``row_chunks``): each row of a C-ordered ``h`` is reduced alone, as in one pass."""
    scores = np.empty(len(h))
    for rows in row_chunks(*h.shape):
        np.sum(h[rows] * h[rows], axis=1, out=scores[rows])
    return scores


def col_scores(h: np.ndarray) -> np.ndarray:
    """Per-column sum of squared entries."""
    return np.sum(h * h, axis=0)


def _topk_bits(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean of ``scores``' shape that picks the k largest scores along the last axis,
    ties broken by lowest index: each row's k-th largest value, found by partition, and
    every score above it, then the lowest-index scores equal to it."""
    scores = np.asarray(scores)
    n = scores.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for {n} scores")
    kth = np.partition(scores, n - k, axis=-1)[..., [n - k]]  # a copy: the partition is freed
    bits = scores > kth
    tied = scores == kth
    wanted = k - np.count_nonzero(bits, axis=-1, keepdims=True)
    bits |= tied & (np.cumsum(tied, axis=-1) <= wanted)
    return bits


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis, ties broken by lowest
    index, sorted: one ``intp`` row of k per row of ``scores``."""
    bits = _topk_bits(scores, k)
    return np.nonzero(bits)[-1].reshape(*bits.shape[:-1], k)


def build_mask(h: np.ndarray, k: int, variant: str) -> LayerMask:
    """Mask from a gradient matrix: top-k rows, columns, or per-row entries."""
    rows, cols = h.shape
    if variant == "row":
        return LayerMask("row", (rows, cols), topk_indices(row_scores(h), k))
    if variant == "col":
        return LayerMask("col", (rows, cols), topk_indices(col_scores(h), k))
    if variant == "sparse":  # top-k per row, one block of rows at a time
        bits = np.empty((rows, cols), dtype=bool)
        for block in row_chunks(rows, cols):
            bits[block] = _topk_bits(np.abs(h[block]), k)
        return LayerMask("sparse", (rows, cols), bits)
    raise ConfigError(f"build_mask supports row/col/sparse, got {variant!r}")


def mask_objective(h: np.ndarray, mask: LayerMask) -> float:
    """Squared norm of the gradient energy the mask discards."""
    if h.shape != mask.shape:
        raise ShapeError(f"gradient shape {h.shape} != mask shape {mask.shape}")
    dropped = h.copy()
    dropped[mask.trainable[0]] = 0.0
    dropped *= dropped  # squared in place: its own copy
    return float(np.sum(dropped))


def retained_energy(h: np.ndarray, mask: LayerMask) -> float:
    """Squared norm of the kept gradient entries; complements mask_objective."""
    if h.shape != mask.shape:
        raise ShapeError(f"gradient shape {h.shape} != mask shape {mask.shape}")
    idx = mask.trainable[0]
    kept = np.zeros_like(h)
    kept[idx] = h[idx]
    kept *= kept  # squared in place: its own copy
    return float(np.sum(kept))


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


def _layer_positions(mask: LayerMask, at: int) -> np.ndarray:
    """The positions of a layer's trainable weight entries then biases, in C order, in a
    parameter vector where the layer starts at ``at`` (its weight row-major, then its bias)."""
    rows, cols = mask.shape
    wi, bi = mask.trainable
    if mask.variant == "full":
        return np.arange(at, at + rows * cols + rows)
    if mask.variant == "row":
        weight = (wi[:, None] * cols + np.arange(cols)).ravel()
    elif mask.variant == "col":
        weight = (np.arange(rows)[:, None] * cols + wi[1]).ravel()
    else:
        weight, bi = np.flatnonzero(wi), np.flatnonzero(bi)
    return np.concatenate([weight + at, bi + (at + rows * cols)])


class Segment(NamedTuple):
    """One trainable slice in the flat layout: ``param`` ("weight" or "bias")
    of ``layer`` at ``index``, shaped ``shape``, at ``offset`` in the vector."""
    layer: int
    param: str
    index: object
    shape: tuple[int, ...]
    offset: int
    size: int

    def view(self, vector: np.ndarray) -> np.ndarray:
        """The segment's entries of a layout vector, as a writeable view of shape ``shape``."""
        return vector[self.offset:self.offset + self.size].reshape(self.shape)


class BackpropStep(NamedTuple):
    """What ``backward`` reads of the masks at one layer. ``rows`` picks the columns of
    the layer's delta: the trained rows of the lowest layer when it carries a row mask
    (the layer is then full over them), else all. ``kind`` names the weight product
    ("full", "row", "col" or "sparse") and ``index`` what it takes: the delta columns
    of a row product, the input columns of a col product, the boolean matrix of a
    sparse one. ``bias_index`` picks the bias gradients out of the delta's column
    sums (``...`` for all), None when the layer trains no bias. Where the layer's
    gradients go is its two ``segments``, ``2 * layer`` and ``2 * layer + 1``."""
    layer: int
    rows: object
    kind: str
    index: object
    bias_index: object


@dataclass(frozen=True)
class GradientMaskSet:
    """One LayerMask per model layer; the head layer is always full. It owns the
    flat layout of the trainable entries that backprop, the penalty and Adam share:
    ``segments`` is the one record of where each layer's slice sits in the layout,
    and ``positions`` the one map from the layout to the model's parameter vector
    (None when the layout is that vector); nothing else keeps a copy of either. It
    also owns the plan ``backward`` follows (``backprop``). Each is built on first
    use and kept with the set, so a run derives them once.

    The vector is a ``ModelParams``'s when ``rows_held`` is 0. When it is 2 (the row
    path), it is a ``model.RowParams``'s, which holds only the trained rows of layers
    0 and 1, both under row masks: ``stored`` sees those as full masks over their
    rows, and the layout, the positions and the shapes a vector's layers must have
    follow ``stored``, while the plan follows ``layers``."""
    layers: tuple[LayerMask, ...]
    rows_held: int = 0

    def __post_init__(self):
        if any(m.variant != "row" for m in self.layers[:self.rows_held]):
            raise ConfigError(f"a vector holds the trained rows of row masks alone, not of "
                              f"{[m.variant for m in self.layers[:self.rows_held]]}")

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

    def check_shapes(self, layers: Sequence[Layer]) -> None:
        """Refuse layers whose weight shapes are not the ``stored`` masks' shapes."""
        shapes, weights = [m.shape for m in self.stored], [l.weight.shape for l in layers]
        if shapes != weights:
            raise ShapeError(f"mask shapes {shapes} != weight shapes {weights}")

    @functools.cached_property
    def stored(self) -> tuple[LayerMask, ...]:
        """The masks as the parameter vector holds their layers: the first ``rows_held`` as
        full masks over the rows they train, the rest as they are."""
        held = self.layers[:self.rows_held]
        return (*(full_mask((m.index.size, m.shape[1])) for m in held),
                *self.layers[self.rows_held:])

    @functools.cached_property
    def segments(self) -> tuple[Segment, ...]:
        """Layer 0's ``weight[wi]`` then its ``bias[bi]``, then layer 1's, ..., each
        in C order, end to end: layer ``i``'s segments are ``2 * i`` and ``2 * i + 1``,
        indexed as the ``stored`` masks index the vector's layers."""
        segments, offset = [], 0
        for i, mask in enumerate(self.stored):
            for param, shape, index in zip(("weight", "bias"), (mask.shape, mask.shape[:1]),
                                           mask.trainable):
                sliced = np.broadcast_to(False, shape)[index].shape
                segments.append(Segment(i, param, index, sliced, offset, math.prod(sliced)))
                offset += segments[-1].size
        return tuple(segments)

    @functools.cached_property
    def size(self) -> int:
        """The number of trainable entries: the length of a layout vector."""
        return sum(s.size for s in self.segments)

    @functools.cached_property
    def positions(self) -> np.ndarray | None:
        """Where each entry of the flat layout sits in a parameter vector of the ``stored``
        masks' shapes (``ModelParams.params``, or a ``RowParams``'s), as one read-only
        ``intp`` array in layout order, built in memory proportional to the trainable
        entries; None when every stored mask is full, as the layout is then the parameter
        vector itself. The one map from the layout to that vector: the penalty gathers
        through it and Adam scatters through it."""
        if all(m.variant == "full" for m in self.stored):
            return None
        offsets = param_offsets([m.shape for m in self.stored])
        return _frozen(np.concatenate([_layer_positions(m, at)
                                       for m, at in zip(self.stored, offsets)]))

    @functools.cached_property
    def backprop(self) -> tuple[BackpropStep, ...]:
        """One ``BackpropStep`` per layer from the head down to the lowest layer with a
        trainable entry, where backprop stops. The layers below it hold no layout entry."""
        lowest = next((s.layer for s in self.segments[::2] if s.size), len(self.layers))
        steps = []
        for l in range(len(self.layers) - 1, lowest - 1, -1):
            b = self.segments[2 * l + 1]
            kind, (wi, bi), rows = self.layers[l].variant, self.layers[l].trainable, slice(None)
            if l == lowest and kind == "row":
                rows, kind, bi = wi, "full", ...
            index = wi[1] if kind == "col" else None if kind == "full" else wi
            steps.append(BackpropStep(l, rows, kind, index, bi if b.size else None))
        return tuple(steps)


def scl_gradients(pre: ModelParams, x: np.ndarray, y: np.ndarray, tau: float,
                  z1: np.ndarray | None = None) -> list[np.ndarray]:
    """Mean contrastive-loss weight gradient per layer at the given parameters,
    as matrix views of the weight segments of one full-mask gradient vector.

    The head is excluded from the loss path, so its entry is all zeros, and its
    logits are dropped at once. On three or more layers the forward starts from layer
    1's pre-activation ``z1`` of ``x``: given (as subset selection writes it, an array
    it owns; its ReLU is taken in place) or formed by layers 0 and 1 as a model of
    their own. Layer 0's activation, which backprop alone reads, is formed after the
    loss. Backprop reads the head input only through its ReLU gate, held as
    ``np.packbits`` bits while the loss runs and unpacked into the cache for
    ``backward``. The loss consumes the head input, forming its unit rows and then its
    gradient in that activation's own buffer (a one-layer model's head input is the
    caller's ``x``, so the loss takes a copy of it). That gradient is divided by the
    batch size in place, and ``backward`` consumes it and the cache, forming each
    delta in an array it already holds. Scores sum squares, so a gradient whose
    squares do not sum to a finite number (as a tiny ``tau`` gives) raises
    NumericError.
    """
    n, x = len(pre.layers), np.asarray(x, dtype=np.float64)
    if z1 is not None and (n < 3 or x.shape[1:] != (pre.dims[0],)
                           or z1.shape != (len(x), pre.dims[2])):
        raise ShapeError(f"batch of shape {x.shape} and z1 of shape {z1.shape} do not fit "
                         f"layers 0 and 1 of dims {pre.dims} with a layer above them")
    if n < 3:
        features, cache = forward(pre, x)[1:]
    else:  # layer 0's activation of x is freed here and formed again after the loss
        z1 = forward(pre.layer_range(0, 2), x)[0] if z1 is None else z1
        features, top = forward(pre.layer_range(2, n), np.maximum(z1, 0.0, out=z1))[1:]
        cache = ForwardCache(pre, top.inputs)  # layers 0 and 1's inputs join it below
    own = n > 1  # else the features are the caller's x
    if own:
        gate = np.packbits(features > 0.0)
    _, d_features = scl_loss(features, y, tau, out=features if own else None)
    d_features /= len(y)  # divided in place, consumed below
    if own:  # the bits are dropped once unpacked into the cache
        cache.inputs[-1] = np.unpackbits(gate, count=d_features.size).view(bool).reshape(
            d_features.shape)
        del gate
    if n >= 3:
        cache.inputs[:0] = [x, _dense(x, pre.layers[0], True)]
    masks = GradientMaskSet.all_full(pre)
    grad = backward(pre, cache, masks, d_features=d_features)
    if not np.isfinite(np.dot(grad, grad)):
        raise NumericError(f"contrastive gradient at tau={tau}: its squared norm is not finite")
    return [s.view(grad) for s in masks.segments[::2]]


def check_budget(shapes: list[tuple[int, int]], k: int, variant: str) -> None:
    """Refuse an unknown variant, or a k some maskable layer (all but the last) cannot hold."""
    if variant not in SELECTION_VARIANTS:
        raise ConfigError(f"unknown selection variant {variant!r}")
    for i, (rows, cols) in enumerate(shapes[:-1]):
        limit = rows if variant == "row" else cols
        if not 1 <= k <= limit:
            raise ConfigError(f"k={k} out of range for layer {i} with shape {rows}x{cols}")


def compute_mask_set(gradients: list[np.ndarray], k: int, variant: str) -> GradientMaskSet:
    """The one mask builder: per-layer scores (``scl_gradients``) to one mask per maskable
    layer. The head is never scored (it is fresh per task); its mask is full."""
    check_budget([h.shape for h in gradients], k, variant)
    masks = [build_mask(h, k, variant) for h in gradients[:-1]]
    masks.append(full_mask(gradients[-1].shape))
    return GradientMaskSet(tuple(masks))


def trainable_fraction(model: ModelParams, masks: GradientMaskSet) -> float:
    """Share of all parameters (weights and biases) the masks leave trainable."""
    masks.check_shapes(model.layers)
    return masks.size / model.param_count()


def _index_lists(mask: LayerMask) -> list | None:
    """The JSON form of a mask's index: its sorted list for row/col, one sorted list
    of columns per row for sparse, and None for full."""
    if mask.variant == "sparse":
        return [np.flatnonzero(row).tolist() for row in mask.index]
    return None if mask.index is None else mask.index.tolist()


def masks_to_doc(masks: GradientMaskSet) -> dict:
    """JSON document of a mask set: one entry per layer and the total storage."""
    return {"layers": [{"variant": m.variant, "shape": list(m.shape),
                        "storage_bits": m.storage_bits(), "indices": _index_lists(m)}
                       for m in masks.layers],
            "storage_bits": masks.total_storage_bits()}


def save_masks(masks: GradientMaskSet, path: str | Path) -> None:
    write_json(masks_to_doc(masks), path)
