"""Multilayer perceptron, forward cache, and exact backprop.

The model is deliberately small: dense layers, ReLU on every layer but the
last, identity on the last (the head). A layer's role follows from its
position alone: ``embedding`` (first), ``hidden``, or ``head`` (last); see
:func:`layer_roles`.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, ShapeError, StateError
from .fileio import atomic_open
from .linalg import Rng

if TYPE_CHECKING:  # masking imports this module for forward and backward
    from .masking import GradientMaskSet

@dataclass(frozen=True)
class Layer:
    """One dense layer's weight, its transpose ``weight_t`` and its bias. In a ``ModelParams``
    all are views into its parameter vector; the layer is frozen, so no code can rebind them."""
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    weight_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight_t", self.weight.T)

    def copy(self) -> "Layer":
        return Layer(self.weight.copy(), self.bias.copy())

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def param_offsets(shapes: Sequence[tuple[int, int]]) -> list[int]:
    """Where the layers of the given weight shapes start in a parameter vector, each
    layer its weight (row-major) then its bias, and the vector's length last."""
    return list(itertools.accumulate((rows * cols + rows for rows, cols in shapes), initial=0))


def _weight_shapes(dims: Sequence[int]) -> list[tuple[int, int]]:
    return list(zip(dims[1:], dims))


def _layer_views(params: np.ndarray, shapes: Sequence[tuple[int, int]]) -> tuple[Layer, ...]:
    """Layers of the given weight shapes as views into ``params``, laid out end to end."""
    return tuple(Layer(params[at:at + rows * cols].reshape(rows, cols),
                       params[at + rows * cols:at + rows * cols + rows])
                 for (rows, cols), at in zip(shapes, param_offsets(shapes)))


def _concatenated(layers: Sequence[Layer]) -> np.ndarray:
    """One fresh vector of ``layers``' weights (row-major) and biases, layer by layer."""
    return np.concatenate([a.ravel() for l in layers for a in (l.weight, l.bias)],
                          dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """An MLP's parameters as one C-contiguous float64 vector, ``params``, in
    checkpoint order: layer 0's weight (row-major) then its bias, then layer 1's,
    and so on. ``dims`` lists the input width and every layer's output width.
    Each ``Layer`` of ``layers`` holds views into ``params``, so writing into a
    layer writes into the vector and the reverse."""
    params: np.ndarray
    dims: list[int]
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", list(self.dims))
        self.validate()
        object.__setattr__(self, "layers", _layer_views(self.params, _weight_shapes(self.dims)))

    def validate(self) -> None:
        """Refuse fewer than two widths, or a vector that is not C-contiguous float64
        of the length they need."""
        if len(self.dims) < 2:
            raise ConfigError("dims must list at least an input and an output width")
        size = param_offsets(_weight_shapes(self.dims))[-1]
        p = self.params
        if not (p.dtype == np.float64 and p.shape == (size,) and p.flags.c_contiguous):
            raise ShapeError(f"dims {self.dims} need a C-contiguous float64 vector of {size} "
                             f"parameters, got {p.dtype} of shape {p.shape}")

    @staticmethod
    def from_layers(layers: Sequence[Layer]) -> "ModelParams":
        """A model over a fresh vector holding copies of ``layers``' weights and biases."""
        if not layers:
            raise ConfigError("model must have at least one layer")
        for i, layer in enumerate(layers):
            if layer.bias.shape != (layer.out_dim,):
                raise ShapeError(f"layer {i}: bias length {layer.bias.shape} "
                                 f"does not match weight rows {layer.out_dim}")
            if i > 0 and layer.in_dim != layers[i - 1].out_dim:
                raise ShapeError(f"layer {i}: input width {layer.in_dim} does not chain "
                                 f"with previous output width {layers[i - 1].out_dim}")
        return ModelParams(_concatenated(layers), [layers[0].in_dim] + [l.out_dim for l in layers])

    @property
    def feature_dim(self) -> int:
        """Width of the head input (penultimate activation)."""
        return self.dims[-2]

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    def param_count(self) -> int:
        return self.params.size

    def layer_range(self, start: int, stop: int) -> "ModelParams":
        """Layers ``start`` to ``stop - 1`` as a model of their own over a view of ``params``."""
        at = param_offsets([l.weight.shape for l in self.layers[:stop]])
        return ModelParams(self.params[at[start]:at[stop]], self.dims[start:stop + 1])


@dataclass(frozen=True, eq=False)
class RowParams:
    """A row-path run's trained parameters, of an MLP of ``dims``. Row masks on layers 0
    and 1 train their rows ``rows0`` and ``rows1`` alone, so ``params``, one C-contiguous
    float64 vector, holds just those rows of the two layers, each layer's weight rows then
    their biases (segments 0 to 3 of the masks' layout), and then layers 2 and up in
    checkpoint order. ``layers`` views it, layers 0 and 1 as their trained rows. The
    frozen entries of layers 0 and 1 are read in place from ``base``, which is never
    written. ``forward`` takes one with a ``RowAnchor``; ``to_model`` writes its rows
    into a copy of ``base``'s layers.

    One run state cannot serve both paths. Column, sparse and full masks train entries
    in every row, and row masks on a layer 1 of fewer than
    ``harness._ROW_PATH_MIN_WEIGHTS`` weights take the dense path, whose products cost
    less there; either way the products need each layer's whole current weights, so the
    dense path holds a whole copy, a ``ModelParams``. Only row masks leave every frozen
    row of layers 0 and 1 at ``base``, so this holds just their trained rows and reads
    the rest in place. The row path is not to grow further without a workload that
    shows the gain."""
    base: ModelParams
    rows0: np.ndarray
    rows1: np.ndarray
    params: np.ndarray
    dims: list[int]
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) < 4 or self.base.dims[:3] != self.dims[:3]:
            raise ShapeError(f"dims {self.dims} hold no layer 2 over base's layers 0 and 1 "
                             f"of dims {self.base.dims[:3]}")
        shapes = [(len(self.rows0), self.dims[0]), (len(self.rows1), self.dims[1]),
                  *_weight_shapes(self.dims[2:])]
        if self.params.shape != (param_offsets(shapes)[-1],):
            raise ShapeError(f"{len(self.rows0)} and {len(self.rows1)} trained rows under dims "
                             f"{self.dims} need {param_offsets(shapes)[-1]} parameters, got "
                             f"shape {self.params.shape}")
        object.__setattr__(self, "layers", _layer_views(self.params, shapes))

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    def w1_columns(self) -> np.ndarray:
        """Layer 1's weight columns ``rows0`` (a fresh C-ordered array), its trained rows
        ``rows1`` written in: the weights the trained rows of layer 0 feed."""
        columns = self.base.layers[1].weight[:, self.rows0].copy()
        columns[self.rows1] = self.layers[1].weight[:, self.rows0]
        return columns

    def to_model(self) -> ModelParams:
        """The run's model in one fresh vector: ``base``'s layers 0 and 1 with the trained
        rows written in, then layers 2 and up."""
        model = ModelParams.from_layers([*self.base.layers[:2], *self.layers[2:]])
        for whole, rows, trained in zip(model.layers, (self.rows0, self.rows1), self.layers):
            whole.weight[rows] = trained.weight
            whole.bias[rows] = trained.bias
        return model


@dataclass
class ForwardCache:
    model: ModelParams | RowParams
    inputs: list[np.ndarray] = field(repr=False, default_factory=list)


def layer_roles(num_layers: int) -> list[str]:
    """The role of each layer, from its position: embedding first, head last."""
    if num_layers == 1:
        return ["head"]
    return ["embedding"] + ["hidden"] * (num_layers - 2) + ["head"]


def init_model(dims: list[int], seed: int | Rng) -> ModelParams:
    """Build an MLP with uniform [-sqrt(1/fan_in), sqrt(1/fan_in)] weights and zero biases,
    drawn layer by layer into one vector."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    model = ModelParams(np.zeros(param_offsets(_weight_shapes(dims))[-1]), dims)
    for layer in model.layers:
        bound = np.sqrt(1.0 / layer.in_dim)
        layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
    return model


def reinit_head(model: ModelParams, num_classes: int, rng: Rng,
                rows: tuple[np.ndarray, np.ndarray] | None = None) -> ModelParams | RowParams:
    """A fine-tuning run's one trained copy of ``model``, which it leaves as it is, under a
    freshly drawn head of ``num_classes`` outputs, in one fresh vector: a copy of
    ``model``'s layers below the head, or, given ``rows`` (the trained rows of layers 0
    and 1: the row path), a ``RowParams`` that copies only those rows of the two layers."""
    fan_in = model.feature_dim
    bound = np.sqrt(1.0 / fan_in)
    head = Layer(rng.uniform(-bound, bound, size=(num_classes, fan_in)), np.zeros(num_classes))
    if rows is None:
        return ModelParams.from_layers([*model.layers[:-1], head])
    trained = [Layer(l.weight[r], l.bias[r]) for l, r in zip(model.layers, rows)]
    return RowParams(model, *rows, _concatenated([*trained, *model.layers[2:-1], head]),
                     [*model.dims[:-1], num_classes])


# rows per chunk where a whole dataset is forwarded: about this many entries
# of its widest activation, however many rows the dataset has
_CHUNK = 1 << 15


def row_chunks(samples: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``range(samples)``, each about ``_CHUNK`` entries ``width`` wide."""
    step = max(1, _CHUNK // width)
    return (slice(a, min(a + step, samples)) for a in range(0, samples, step))


class RowAnchor(NamedTuple):
    """What row masks on layers 0 and 1 leave of ``base``'s forward pass, per dataset row.

    Such masks change layer 0 only in its trained rows ``rows0``, and so its
    activation ``a`` only in those columns, and layer 1 only in its trained rows
    ``rows1``. So layer 1's pre-activation is the anchor's ``z1`` plus
    ``(a[:, rows0] - a_base[:, rows0]) @ W1[:, rows0].T``, where ``a_base`` is the
    activation at ``base``, except in the rows ``rows1``, which are computed afresh;
    the anchor keeps ``a_base`` whole, ``a0_whole``, so ``forward`` given an anchor
    forms only the columns ``rows0`` of ``a`` and never ``x @ W0.T`` or ``a @ W1.T``.
    Neither array depends on the masks. ``row_anchor`` builds one, and no other module
    reads its arrays.
    """
    z1: np.ndarray  # (samples, layer 1 width)
    a0_whole: np.ndarray  # (samples, layer 0 width)

    def take(self, index) -> "RowAnchor":
        """The anchor of the dataset rows at ``index``, a slice or an index array. Its
        layer-0 activation is always a fresh array, as ``forward`` writes it in place: a
        slice's rows are copied, an index array's gathered."""
        a0 = self.a0_whole[index]
        return RowAnchor(self.z1[index], a0.copy() if isinstance(index, slice) else a0)


def _dense(a: np.ndarray, layer: Layer, relu: bool) -> np.ndarray:
    """``a @ W.T + b``, then ReLU where ``relu``: one fresh array, written in place."""
    z = a @ layer.weight_t
    z += layer.bias
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _trained_columns(x: np.ndarray, rows: Layer) -> np.ndarray:
    """Layer 0's activation in the columns of ``rows``, some of its rows as a layer of
    their own, from its input ``x``."""
    k = rows.out_dim
    if k == 1:  # one row would make this a matrix-vector product, whose sums round apart
        rows = Layer(rows.weight[[0, 0]], rows.bias[[0, 0]])  # from the dense forward's
    return _dense(x, rows, True)[:, :k]


def row_anchor(model: ModelParams, x: np.ndarray, z1: np.ndarray | None = None) -> RowAnchor:
    """The ``RowAnchor`` of ``model`` over the rows of ``x``: layer 0's activation of all
    of them in one product, and ``z1``, layer 1's pre-activation of those rows, taken as
    given (as subset selection writes it) or computed from that activation in one more.
    Each product is written straight into the anchor, and both arrays are made
    read-only: ``forward`` writes the layer-0 activation of the anchor it is given, so
    it is given a ``take``."""
    bottom = model.layer_range(0, 2)
    if z1 is not None and z1.shape != (len(x), bottom.num_classes):
        raise ShapeError(f"z1 of shape {z1.shape} cannot hold {len(x)} rows of layer 1's "
                         f"{bottom.num_classes} outputs")
    a0 = _dense(x, bottom.layers[0], True)
    anchor = RowAnchor(_dense(a0, bottom.layers[1], False) if z1 is None else z1, a0)
    for a in anchor:
        a.flags.writeable = False
    return anchor


def _row_bottom(model: RowParams, x: np.ndarray,
                anchor: RowAnchor) -> tuple[np.ndarray, np.ndarray]:
    """The activations of layers 0 and 1 on the row path (see ``RowAnchor``). Layer 0's is
    the anchor's, a ``take``'s fresh array, with the trained columns ``rows0`` written
    in place."""
    rows0, rows1 = model.rows0, model.rows1
    a = anchor.a0_whole
    trained = _trained_columns(x, model.layers[0])
    change = trained - a[:, rows0]
    a[:, rows0] = trained
    z = change @ model.w1_columns().T  # its columns rows1 are computed afresh below
    z += anchor.z1
    z[:, rows1] = _dense(a, model.layers[1], False)
    np.maximum(z, 0.0, out=z)  # layer 1 is never the head
    return a, z


def forward(model: ModelParams | RowParams, x_batch: np.ndarray,
            anchor: RowAnchor | None = None) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network; return (logits, features, cache).

    ``features`` is the head input, i.e. the penultimate activation (or the
    raw batch for a head-only model). Each layer allocates one activation:
    the bias and the ReLU are applied in place to the fresh matmul result, and
    forward writes no cached input again (``backward`` consumes the cache).

    A ``RowParams`` is forwarded with ``anchor``, the ``RowAnchor.take`` of the batch's
    rows at its ``base``, and a ``ModelParams`` without: layers 0 and 1 are computed
    from the anchor (see ``RowAnchor``), the row path, which costs the trained rows
    of layer 1 rather than its whole matrix. Its logits and cache equal the dense
    ones of ``model.to_model()`` up to rounding.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim != 2 or x_batch.shape[1] != model.dims[0]:
        raise ShapeError(f"batch shape {x_batch.shape} does not match "
                         f"input width {model.dims[0]}")
    if isinstance(model, RowParams) != (anchor is not None):
        raise StateError("a RowParams is forwarded with a RowAnchor, and a ModelParams without")
    cache = ForwardCache(model=model)
    a, start = x_batch, 0
    if anchor is not None:
        n, dims = len(x_batch), model.dims
        if anchor.z1.shape != (n, dims[2]) or anchor.a0_whole.shape != (n, dims[1]):
            raise ShapeError(f"row anchor's z1 of shape {anchor.z1.shape} or its layer-0 "
                             f"activation of shape {anchor.a0_whole.shape} does not fit a "
                             f"batch of {n} rows into layers 0 and 1 of dims {dims[:3]}")
        bottom, a = _row_bottom(model, x_batch, anchor)
        cache.inputs += [x_batch, bottom]
        start = 2
    head = len(model.layers) - 1
    for i, layer in enumerate(model.layers[start:], start):
        cache.inputs.append(a)
        a = a @ layer.weight_t
        a += layer.bias
        if i < head:
            np.maximum(a, 0.0, out=a)
    logits = a
    features = cache.inputs[-1]
    return logits, features, cache


def backprop_views(masks: GradientMaskSet, out: np.ndarray) -> tuple:
    """Per step of the ``backprop`` plan of ``masks``, the views of ``out`` (in their layout) it
    writes: its layer's weight segment, shaped, and bias segment (``segments[2 * l]`` and
    ``segments[2 * l + 1]``); a training run resolves them once."""
    segments = masks.segments
    return tuple((segments[2 * s.layer].view(out), segments[2 * s.layer + 1].view(out))
                 for s in masks.backprop)


def backward(model: ModelParams | RowParams, cache: ForwardCache, masks: GradientMaskSet,
             d_logits: np.ndarray | None = None, d_features: np.ndarray | None = None,
             out: np.ndarray | None = None, views: tuple | None = None) -> np.ndarray:
    """Exact gradients of an upstream loss over the trainable entries, as one
    vector in the flat layout of ``masks`` (see ``GradientMaskSet.segments``):
    ``out`` when given (a C-contiguous float64 vector of ``masks.size``, whatever
    it held), else a fresh vector. Every entry is written, through ``backprop_views``.

    It follows the masks' ``backprop`` plan, writes through their ``segments`` and
    reads nothing else of them but their size. Row, col and full weight products
    are written straight into their segments; a sparse one is gathered from the
    full product. Backprop stops at the lowest layer with a trainable entry, and
    into it only the deltas of the rows it trains are propagated
    (``delta @ W[:, rows]``); on a ``RowParams`` those of layer 1 are read from
    its ``w1_columns``. The head's segments are zero on the ``d_features`` path,
    which starts at the head input.
    Exactly one of ``d_logits`` / ``d_features`` must be given. ``d_features`` is
    consumed, as Adam consumes its gradient: the first delta is formed in it, in
    place, so on return it holds that delta, not the upstream gradient. So is the cache:
    each layer's input is dropped from it once its ReLU' is read (an input cached as a
    boolean array is that gate itself), and a full-width delta below the first is
    formed in the activation it gates. ``cache.inputs`` is emptied, and a consumed
    cache raises StateError.
    """
    if cache.model is not model:
        raise StateError("cache does not belong to this model")
    if not cache.inputs:
        raise StateError("cache was consumed by an earlier backward")
    if (d_logits is None) == (d_features is None):
        raise ValueError("provide exactly one of d_logits or d_features")
    if out is None:
        out = np.empty(masks.size)
    elif not (out.dtype == np.float64 and out.shape == (masks.size,) and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 vector of {masks.size} entries")

    n = len(model.layers)
    start = n - 1 if d_logits is not None else n - 2
    upstream = np.asarray(d_logits if d_logits is not None else d_features, dtype=np.float64)
    for step, (w_out, b_out) in zip(masks.backprop, views or backprop_views(masks, out)):
        l, rows = step.layer, step.rows
        if l > start:  # the head, on the d_features path
            w_out[...] = b_out[...] = 0.0
            continue
        if l == n - 1:
            delta = upstream[:, rows]
        else:  # the gate first: ReLU'(z) = max(z, 0) > 0, read off the next layer's input
            a, cache.inputs[l + 1] = cache.inputs[l + 1], None  # dropped once read
            gate = a[:, rows]
            if gate.dtype != bool:  # a boolean input is the gate itself (scoring's head input)
                gate = gate > 0.0
            if l == start:  # in place: in d_features itself, unless rows gathers
                delta = upstream[:, rows]
            elif l == 0 and isinstance(model, RowParams):  # rows is rows0
                delta = delta @ model.w1_columns()
            elif isinstance(rows, slice):  # in the activation it gates: nothing reads it again
                delta = np.matmul(delta, model.layers[l + 1].weight, out=a)
            else:
                delta = delta @ model.layers[l + 1].weight[:, rows]
            delta *= gate
            del a, gate
        x = cache.inputs[l]
        if step.kind == "full":
            np.matmul(delta.T, x, out=w_out)
        elif step.kind == "row":
            np.matmul(delta[:, step.index].T, x, out=w_out)
        elif step.kind == "col":
            np.matmul(delta.T, x[:, step.index], out=w_out)
        else:  # sparse: gathered from the full product
            w_out[...] = (delta.T @ x)[step.index]
        if step.bias_index is ...:
            np.add.reduce(delta, axis=0, out=b_out)
        elif step.bias_index is not None:
            b_out[...] = np.add.reduce(delta, axis=0)[step.bias_index]
    cache.inputs.clear()
    return out


CHECKPOINT_MAGIC = b"masktune-checkpoint 1\n"


def save_checkpoint(model: ModelParams, path: str | Path) -> None:
    """Write the binary checkpoint: the magic line, a one-line JSON header
    with ``dims`` and the positional ``roles``, then the parameter vector (per
    layer the weight, row-major, and the bias) as raw little-endian float64.
    The bytes depend on the model only."""
    roles = layer_roles(len(model.layers))
    header = json.dumps({"dims": model.dims, "roles": roles}).encode() + b"\n"
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        fh.write(np.asarray(model.params, dtype="<f8"))


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint, whatever the file is named.

    An unreadable file, a missing magic line (as in the older JSON
    checkpoints), a malformed header (one nested deeper than the JSON parser's
    recursion limit included), header roles other than the positional
    ones, a byte count that does not fit the header or a non-finite value
    (named by its first layer) raises InputError. The file's values are read
    straight into the model's vector, one writeable array, and its layers are
    views into it.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path)
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, path: str | Path) -> ModelParams:
    """``load_checkpoint`` of the open binary file ``fh``."""
    if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise InputError(f"{path} is not a masktune checkpoint: expected the line "
                         f"{CHECKPOINT_MAGIC.decode().strip()!r}, a one-line JSON header with "
                         f"dims and roles, then each layer's weight and bias as raw "
                         f"little-endian float64")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise InputError(f"checkpoint {path}: the header line is cut off")
    try:
        header = json.loads(line[:-1])
        dims, roles = header["dims"], header["roles"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"checkpoint {path}: malformed header: {exc!r}") from exc
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise InputError(f"checkpoint {path}: dims must list at least two positive integers")
    positional = layer_roles(len(dims) - 1)
    if roles != positional:
        raise InputError(f"checkpoint {path}: roles {roles!r} are not the positional {positional}")
    expected = 8 * param_offsets(_weight_shapes(dims))[-1]
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    params = np.empty(expected // 8, dtype="<f8") if size == expected else None
    if params is None or fh.readinto(params.view(np.uint8)) != expected:
        raise InputError(f"checkpoint {path}: {size} bytes of parameters "
                         f"after the header, dims {dims} need {expected}")
    model = ModelParams(params.astype(np.float64, copy=False), dims)  # a copy on big-endian only
    if not np.isfinite(model.params).all():
        bad = next(i for i, l in enumerate(model.layers)
                   if not (np.isfinite(l.weight).all() and np.isfinite(l.bias).all()))
        raise InputError(f"checkpoint {path}: layer {bad} has non-finite entries")
    return model
