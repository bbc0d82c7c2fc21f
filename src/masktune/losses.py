"""Training objectives: cross-entropy, supervised contrastive loss, and the
pull-to-pretrained penalty, each returning exact analytic gradients.

The supervised contrastive loss L2-normalizes feature rows before the dot
products, and its gradient w.r.t. the raw (pre-normalization) features carries
the normalization Jacobian. Samples without a same-class partner in the batch
contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError
from .model import GradientSet, LayerGrad, ModelParams, backward, forward, layer_roles

if TYPE_CHECKING:  # masking imports this module for the contrastive loss
    from .masking import GradientMaskSet


@dataclass(frozen=True)
class RegularSet:
    """Which layers the distance penalty covers.

    ``last_l`` counts trailing hidden layers; embedding and head are toggled
    separately, mirroring "last L layers + embedding + head".
    """
    last_l: int
    include_embedding: bool = True
    include_head: bool = True

    def __post_init__(self):
        if self.last_l < 0:
            raise ConfigError(f"last_l must be >= 0, got {self.last_l}")


@dataclass(frozen=True)
class RegConfig:
    lam: float
    norm: str = "l2"  # l2 | l1 | none
    regular: RegularSet = RegularSet(last_l=0)

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.norm not in ("l2", "l1", "none"):
            raise ConfigError(f"unknown norm {self.norm!r}")


def resolve_regular_layers(model: ModelParams, regular: RegularSet) -> list[int]:
    """Indices of layers in the regular set, in ascending order."""
    roles = layer_roles(len(model.layers))
    hidden = [i for i, role in enumerate(roles) if role == "hidden"]
    if regular.last_l > len(hidden):
        raise ConfigError(f"last_l={regular.last_l} exceeds the {len(hidden)} hidden layers")
    chosen = set(hidden[len(hidden) - regular.last_l:])
    if regular.include_embedding:
        chosen.update(i for i, role in enumerate(roles) if role == "embedding")
    if regular.include_head:
        chosen.add(len(model.layers) - 1)
    return sorted(chosen)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax of the true class; gradient is (softmax - onehot)/batch."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.sum(exp, axis=1, keepdims=True)
    rows = np.arange(batch)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    d_logits = exp / total
    d_logits[rows, labels] -= 1.0
    d_logits /= batch
    return loss, d_logits


def scl_loss(features: np.ndarray, labels: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over L2-normalized feature rows.

    Returns the summed loss over anchors and its gradient w.r.t. the raw
    features (normalization Jacobian included).
    """
    if not 0.0 < tau < np.inf:
        raise ConfigError(f"temperature must be positive and finite, got {tau}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch = features.shape[0]
    if batch < 2:
        raise InputError("contrastive loss needs a batch of at least 2")
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")

    norms = np.linalg.norm(features, axis=1)
    if np.any(norms == 0.0):
        raise NumericError("zero-norm feature row cannot be normalized")
    z = features / norms[:, None]

    sim = (z @ z.T) / tau
    off_diag = ~np.eye(batch, dtype=bool)
    positives = (labels[:, None] == labels[None, :]) & off_diag
    n_pos = positives.sum(axis=1)
    valid = n_pos > 0

    # log-sum-exp over a != i, stabilized per row
    row_max = np.where(off_diag, sim, -np.inf).max(axis=1)
    exp_shift = np.where(off_diag, np.exp(sim - row_max[:, None]), 0.0)
    lse = row_max + np.log(exp_shift.sum(axis=1))

    mean_pos_sim = (positives * sim).sum(axis=1) / np.maximum(n_pos, 1)
    per_anchor = np.where(valid, lse - mean_pos_sim, 0.0)
    loss = float(per_anchor.sum())

    # dL/dsim: softmax over non-self entries minus positive-average, per valid anchor
    softmax = exp_shift / exp_shift.sum(axis=1, keepdims=True)
    g = np.where(valid[:, None], softmax - positives / np.maximum(n_pos, 1)[:, None], 0.0)
    # sim is used both as (i, a) and (a, i) terms; tau divides once more because
    # sim already includes 1/tau -> chain through raw dot products
    d_z = (g + g.T) @ z / tau

    # normalization Jacobian: d/df [f/|f|] applied row-wise
    inner = np.sum(d_z * z, axis=1, keepdims=True)
    d_features = (d_z - inner * z) / norms[:, None]
    return loss, d_features


@dataclass(frozen=True)
class Penalty:
    """The pull-to-pretrained term of one run, resolved once.

    ``layers`` holds ``(layer, weight index, bias index)`` for each regular
    layer, the indices being the layer mask's trainable index; it is empty
    when the penalty is off. Frozen entries equal the anchor bit for bit, so
    their term is exactly zero and the penalty skips them.
    """
    pre: ModelParams
    cfg: RegConfig
    layers: tuple[tuple[int, object, object], ...]


def resolve_penalty(pre: ModelParams, cfg: RegConfig, masks: GradientMaskSet) -> Penalty:
    """The penalty towards ``pre`` over the entries ``masks`` leave trainable."""
    if [m.shape for m in masks.layers] != [l.weight.shape for l in pre.layers]:
        raise ShapeError("masks and pretrained snapshot have different shapes")
    if cfg.norm == "none" or cfg.lam == 0.0:
        return Penalty(pre, cfg, ())
    return Penalty(pre, cfg, tuple((i, *masks.layers[i].trainable)
                                   for i in resolve_regular_layers(pre, cfg.regular)))


def reg_penalty(model: ModelParams, penalty: Penalty) -> tuple[float, GradientSet]:
    """Distance penalty lambda * sum over regular layers of |W - W_pre| (l2 squared or l1).

    Biases of regular layers are penalized symmetrically. sign(0) = 0 for l1.
    Gradient entry i holds the gradient over the trainable slice of regular
    layer i, and None for a layer outside the regular set.
    """
    lam = penalty.cfg.lam
    grads: list[LayerGrad | None] = [None] * len(model.layers)
    loss = 0.0
    for i, wi, bi in penalty.layers:
        dw = model.layers[i].weight[wi] - penalty.pre.layers[i].weight[wi]
        db = model.layers[i].bias[bi] - penalty.pre.layers[i].bias[bi]
        if penalty.cfg.norm == "l2":
            loss += lam * (float(np.sum(dw * dw)) + float(np.sum(db * db)))
            grads[i] = LayerGrad(2.0 * lam * dw, 2.0 * lam * db)
        else:
            loss += lam * (float(np.sum(np.abs(dw))) + float(np.sum(np.abs(db))))
            grads[i] = LayerGrad(lam * np.sign(dw), lam * np.sign(db))
    return loss, GradientSet(grads)


def combined_grad(model: ModelParams, masks: GradientMaskSet, penalty: Penalty,
                  x_batch: np.ndarray, labels: np.ndarray) -> tuple[float, float, GradientSet]:
    """Cross-entropy plus distance penalty; returns (total loss, ce loss, gradients).

    The gradients are over each layer's trainable slice under ``masks``, the
    masks ``penalty`` was resolved with.
    """
    logits, _, cache = forward(model, x_batch)
    ce, d_logits = cross_entropy(logits, labels)
    grads = backward(model, cache, masks, d_logits=d_logits)
    reg_loss, reg_grads = reg_penalty(model, penalty)
    for i, _, _ in penalty.layers:
        grads.layers[i].weight += reg_grads.layers[i].weight
        grads.layers[i].bias += reg_grads.layers[i].bias
    return ce + reg_loss, ce, grads
