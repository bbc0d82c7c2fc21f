"""Multilayer perceptron, forward cache, and exact backprop.

The model is deliberately small: dense layers, ReLU on every layer but the
last, identity on the last (the head). A layer's role follows from its
position alone: ``embedding`` (first), ``hidden``, or ``head`` (last); see
:func:`layer_roles`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InputError, ShapeError, StateError
from .fileio import atomic_open
from .linalg import Rng

if TYPE_CHECKING:  # masking imports this module for forward and backward
    from .masking import GradientMaskSet

@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)

    def copy(self) -> "Layer":
        return Layer(self.weight.copy(), self.bias.copy())

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class ModelParams:
    layers: list[Layer]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise ConfigError("model must have at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.bias.shape != (layer.weight.shape[0],):
                raise ShapeError(f"layer {i}: bias length {layer.bias.shape} "
                                 f"does not match weight rows {layer.weight.shape[0]}")
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ShapeError(f"layer {i}: input width {layer.in_dim} does not chain "
                                 f"with previous output width {self.layers[i - 1].out_dim}")

    def copy(self) -> "ModelParams":
        return ModelParams([l.copy() for l in self.layers])

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    @property
    def feature_dim(self) -> int:
        """Width of the head input (penultimate activation)."""
        return self.layers[-1].in_dim

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_dim

    def param_count(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)


@dataclass
class LayerGrad:
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class GradientSet:
    layers: list[LayerGrad]


@dataclass
class ForwardCache:
    model: ModelParams
    inputs: list[np.ndarray] = field(repr=False, default_factory=list)


def layer_roles(num_layers: int) -> list[str]:
    """The role of each layer, from its position: embedding first, head last."""
    if num_layers == 1:
        return ["head"]
    return ["embedding"] + ["hidden"] * (num_layers - 2) + ["head"]


def init_model(dims: list[int], seed: int | Rng) -> ModelParams:
    """Build an MLP with uniform [-sqrt(1/fan_in), sqrt(1/fan_in)] weights and zero biases."""
    if len(dims) < 2:
        raise ConfigError("dims must list at least an input and an output width")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        bound = np.sqrt(1.0 / n_in)
        layers.append(Layer(rng.uniform(-bound, bound, size=(n_out, n_in)), np.zeros(n_out)))
    return ModelParams(layers)


def reinit_head(model: ModelParams, num_classes: int, rng: Rng) -> ModelParams:
    """Return a copy with a freshly initialized head of the given class count."""
    new = model.copy()
    fan_in = new.feature_dim
    bound = np.sqrt(1.0 / fan_in)
    weight = rng.uniform(-bound, bound, size=(num_classes, fan_in))
    new.layers[-1] = Layer(weight, np.zeros(num_classes))
    return new


def _weight_grad(delta: np.ndarray, x: np.ndarray, index) -> np.ndarray:
    """``(delta.T @ x)[index]``: a row or col index computes only its rows or
    columns, a full (``...``) or sparse (boolean) index the whole product."""
    if isinstance(index, tuple):  # col: (slice(None), cols)
        return delta.T @ x[:, index[1]]
    if index is ... or index.dtype == bool:  # full, sparse
        return (delta.T @ x)[index]
    return delta[:, index].T @ x  # row


def forward(model: ModelParams, x_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network; return (logits, features, cache).

    ``features`` is the head input, i.e. the penultimate activation (or the
    raw batch for a head-only model).
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim != 2 or x_batch.shape[1] != model.layers[0].in_dim:
        raise ShapeError(f"batch shape {x_batch.shape} does not match "
                         f"input width {model.layers[0].in_dim}")
    cache = ForwardCache(model=model)
    a = x_batch
    head = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        cache.inputs.append(a)
        z = a @ layer.weight.T + layer.bias
        a = z if i == head else np.maximum(z, 0.0)
    logits = a
    features = cache.inputs[-1]
    return logits, features, cache


def backward(model: ModelParams, cache: ForwardCache, masks: GradientMaskSet,
             d_logits: np.ndarray | None = None,
             d_features: np.ndarray | None = None) -> GradientSet:
    """Exact gradients of an upstream loss over each layer's trainable slice.

    Entry ``i`` is the gradient of ``weight[wi]`` and ``bias[bi]`` for
    ``wi, bi = masks.layers[i].trainable``. Backprop stops at the lowest layer
    with a trainable entry, and into it only the deltas of the rows it trains
    are propagated (``delta @ W[:, rows]``). Layers it never reaches get zero
    slices, as does the head on the ``d_features`` path, which starts at the
    head input. Exactly one of ``d_logits`` / ``d_features`` must be given.
    """
    if cache.model is not model:
        raise StateError("cache does not belong to this model")
    if (d_logits is None) == (d_features is None):
        raise ValueError("provide exactly one of d_logits or d_features")

    n = len(model.layers)
    start = n - 1 if d_logits is not None else n - 2
    upstream = np.asarray(d_logits if d_logits is not None else d_features, dtype=np.float64)
    lowest = masks.lowest_trainable
    grads: list[LayerGrad] = []
    for l in range(n - 1, -1, -1):
        layer = model.layers[l]
        mask = masks.layers[l]
        wi, bi = mask.trainable
        if not lowest <= l <= start:
            grads.append(LayerGrad(np.zeros_like(layer.weight[wi]), np.zeros_like(layer.bias[bi])))
            continue
        rows = slice(None)
        if l == lowest and mask.variant == "row":
            rows, wi, bi = wi, ..., ...  # delta then holds the trained rows' columns only
        if l == n - 1:
            delta = upstream[:, rows]
        else:
            d_out = upstream[:, rows] if l == start else delta @ model.layers[l + 1].weight[:, rows]
            delta = d_out * (cache.inputs[l + 1][:, rows] > 0.0)  # ReLU'(z) = max(z, 0) > 0
        grads.append(LayerGrad(_weight_grad(delta, cache.inputs[l], wi), delta.sum(axis=0)[bi]))
    return GradientSet(grads[::-1])


CHECKPOINT_MAGIC = b"masktune-checkpoint 1\n"


def save_checkpoint(model: ModelParams, path: str | Path) -> None:
    """Write the binary checkpoint: the magic line, a one-line JSON header
    with ``dims`` and the positional ``roles``, then per layer the weight
    (row-major) and the bias as raw little-endian float64. The bytes depend on
    the model only."""
    roles = layer_roles(len(model.layers))
    header = json.dumps({"dims": model.dims, "roles": roles}).encode() + b"\n"
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        for layer in model.layers:
            fh.write(np.ascontiguousarray(layer.weight, dtype="<f8"))
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8"))


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint, whatever the file is named.

    An unreadable file, a missing magic line (as in the older JSON
    checkpoints), a malformed header, header roles other than the positional
    ones, a byte count that does not fit the header or a non-finite value
    raises InputError. The weights and biases are writeable arrays that own
    their data.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise InputError(f"{path} is not a masktune checkpoint: expected the line "
                         f"{CHECKPOINT_MAGIC.decode().strip()!r}, a one-line JSON header with "
                         f"dims and roles, then each layer's weight and bias as raw "
                         f"little-endian float64")
    start = len(CHECKPOINT_MAGIC)
    end = blob.find(b"\n", start)
    if end < 0:
        raise InputError(f"checkpoint {path}: the header line is cut off")
    try:
        header = json.loads(blob[start:end])
        dims, roles = header["dims"], header["roles"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {path}: malformed header: {exc!r}") from exc
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise InputError(f"checkpoint {path}: dims must list at least two positive integers")
    positional = layer_roles(len(dims) - 1)
    if roles != positional:
        raise InputError(f"checkpoint {path}: roles {roles!r} are not the positional {positional}")
    offset = end + 1
    expected = 8 * sum(n_out * (n_in + 1) for n_in, n_out in zip(dims, dims[1:]))
    if len(blob) - offset != expected:
        raise InputError(f"checkpoint {path}: {len(blob) - offset} bytes of parameters "
                         f"after the header, dims {dims} need {expected}")
    values = np.frombuffer(blob, dtype="<f8", offset=offset)
    layers, at = [], 0
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        # astype copies out of the read-only buffer into native float64
        weight = values[at:at + n_out * n_in].reshape(n_out, n_in).astype(np.float64)
        at += n_out * n_in
        bias = values[at:at + n_out].astype(np.float64)
        at += n_out
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise InputError(f"checkpoint {path}: layer {i} has non-finite entries")
        layers.append(Layer(weight, bias))
    return ModelParams(layers)
