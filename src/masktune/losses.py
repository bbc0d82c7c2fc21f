"""Training objectives: cross-entropy, supervised contrastive loss, and the
pull-to-pretrained penalty, each returning exact analytic gradients.

The supervised contrastive loss L2-normalizes feature rows before the dot
products, and its gradient w.r.t. the raw (pre-normalization) features carries
the normalization Jacobian. Samples without a same-class partner in the batch
contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError
from .model import (Layer, ModelParams, RowAnchor, RowParams, backward, forward, layer_roles,
                    row_chunks)

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


def resolve_regular_layers(num_layers: int, regular: RegularSet) -> list[int]:
    """Indices of the layers of a ``num_layers``-layer model in the regular set, ascending."""
    roles = layer_roles(num_layers)
    hidden = [i for i, role in enumerate(roles) if role == "hidden"]
    if regular.last_l > len(hidden):
        raise ConfigError(f"last_l={regular.last_l} exceeds the {len(hidden)} hidden layers")
    chosen = set(hidden[len(hidden) - regular.last_l:])
    if regular.include_embedding:
        chosen.update(i for i, role in enumerate(roles) if role == "embedding")
    if regular.include_head:
        chosen.add(num_layers - 1)
    return sorted(chosen)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax of the true class; gradient is (softmax - onehot)/batch.

    The reductions call their ufuncs' ``reduce`` straight, as ``np.sum``, ``np.mean``
    and ``ndarray.max`` do behind their Python wrappers, so every bit is theirs. One
    flat index picks the true classes, and the gradient is formed in place in the
    exponentials' array."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if np.maximum.reduce(labels.view(np.uint64)) >= num_classes:  # a negative label wraps above
        raise InputError(f"labels must lie in [0, {num_classes})")
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    d_logits = np.exp(shifted)
    total = np.add.reduce(d_logits, axis=1, keepdims=True)
    true = np.arange(0, batch * num_classes, num_classes) + labels  # flat, row-major
    loss = float(np.add.reduce(np.log(total[:, 0]) - shifted.ravel()[true]) / batch)
    d_logits /= total
    d_logits.ravel()[true] -= 1.0
    d_logits /= batch
    return loss, d_logits


def check_tau(tau: float) -> None:
    """The contrastive temperature divides every similarity: it must be positive and finite."""
    if not 0.0 < tau < np.inf:
        raise ConfigError(f"tau must be positive and finite, got {tau}")


class ContrastivePass(NamedTuple):
    """What ``scl_loss_pass`` leaves for ``scl_grad_pass``: the summed ``loss``; the
    ``n x n`` ``buffer`` that held the similarities and now holds each row's
    exponentials ``exp(sim - row_max)``, zero on the diagonal, and ``sums``, their row
    sums; the unit feature rows ``z``, in the features' own buffer, and the feature
    ``norms``; ``labels``; ``tau``."""
    loss: float
    buffer: np.ndarray
    sums: np.ndarray
    z: np.ndarray
    norms: np.ndarray
    labels: np.ndarray
    tau: float


def _positives(labels: np.ndarray, r: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``r`` of the positive pairs (same label, self excluded), each row's count
    of them floored at 1, and whether it has any."""
    positives = labels[r, None] == labels[None, :]
    positives.ravel()[r.start::len(labels) + 1] = False  # the diagonal, flat, row-major
    n_pos = positives.sum(axis=1)
    return positives, np.maximum(n_pos, 1), n_pos > 0


def scl_loss_pass(features: np.ndarray, labels: np.ndarray, tau: float) -> ContrastivePass:
    """The supervised contrastive loss over L2-normalized feature rows, summed over
    anchors, and what ``scl_grad_pass`` reads to form its gradient.

    ``features`` is consumed: the unit rows ``z`` are formed in its own buffer (a
    float64 array; anything else is converted to a fresh one first), so a caller
    passes an array it owns and does not read again (``scl_loss`` passes a copy).
    One n x n float buffer holds the similarities, then in place their exponentials.
    Every row-wise pass runs over one block of its rows at a time (``row_chunks``),
    which builds that block's positive pairs from ``labels``, so no second n x n
    array, float or boolean, ever exists. A caller that wants the loss alone (subset
    selection) drops the rest. A row whose norm is zero or not finite raises NumericError.
    """
    check_tau(tau)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch = features.shape[0]
    if batch < 2:
        raise InputError("contrastive loss needs a batch of at least 2")
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")

    norms = np.linalg.norm(features, axis=1)
    if not np.all((norms > 0.0) & (norms < np.inf)):  # a zero, infinite or NaN norm
        raise NumericError("a feature row whose norm is zero or not finite cannot be normalized")
    z = features
    z /= norms[:, None]

    sim = z @ z.T
    sim /= tau
    valid = np.empty(batch, dtype=bool)
    mean_pos_sim, row_max, sums = np.empty(batch), np.empty(batch), np.empty(batch)
    for r in row_chunks(batch, batch):
        block = sim[r]
        positives, denom, valid[r] = _positives(labels, r)
        # before the diagonal turns -inf: False * -inf is NaN
        mean_pos_sim[r] = (positives * block).sum(axis=1) / denom

        # log-sum-exp over a != i, stabilized per row; exp(-inf) zeroes the diagonal
        block.ravel()[r.start::batch + 1] = -np.inf
        row_max[r] = block.max(axis=1)
        block -= row_max[r, None]
        np.exp(block, out=block)
        sums[r] = block.sum(axis=1)
    lse = row_max + np.log(sums)
    per_anchor = np.where(valid, lse - mean_pos_sim, 0.0)
    return ContrastivePass(float(per_anchor.sum()), sim, sums, z, norms, labels, tau)


def scl_grad_pass(state: ContrastivePass, out: np.ndarray | None = None) -> np.ndarray:
    """The gradient of ``state.loss`` w.r.t. the raw features (normalization Jacobian
    included): ``out`` when given (a C-contiguous float64 array of the features'
    shape, whatever it held; ``state.z``, the features' own buffer, will do), else a
    fresh array.

    ``state.buffer`` becomes dL/dsim in place, block by block, and the transpose is
    added slab by slab; its product with ``z`` is written into a fresh array, one
    whole-matrix product. The Jacobian then turns that product's rows into the
    gradient in ``out``, a block of rows at a time, its block temporaries in the spent
    n x n buffer (or in one fresh block where that buffer is smaller than a block).
    So at the product live the buffer, ``z`` and the product alone (20 MB on 1000 x
    768 features), and never a block beside them.
    """
    _, sim, sums, z, norms, labels, tau = state
    batch = len(labels)
    if not (out is None or out.dtype == np.float64 and out.shape == z.shape
            and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 array of shape {z.shape}")
    for r in row_chunks(batch, batch):
        # dL/dsim: softmax over non-self entries minus positive-average, per valid anchor
        block = sim[r]
        positives, denom, valid = _positives(labels, r)
        block /= sums[r, None]
        block -= positives / denom[:, None]
        block[~valid] = 0.0
    # sim is used both as (i, a) and (a, i) terms: sim += sim.T, a slab of rows and
    # its transposed columns at a time, each entry the same one addition
    for r in row_chunks(batch, batch):
        slab = sim[r, r.start:] + sim[r.start:, r].T
        sim[r, r.start:] = slab
        sim[r.start:, r] = slab.T
    # tau divides once more because sim already includes 1/tau -> chain through raw
    # dot products
    d_z = sim @ z
    d_z /= tau
    if out is None:
        out = d_z

    # normalization Jacobian: d/df [f/|f|] applied row-wise, a block of rows at a time;
    # each block reads its rows of z before it writes those of out, which may be z
    dim = z.shape[1]
    blocks = list(row_chunks(batch, dim))
    rows = blocks[0].stop
    scratch = sim.reshape(-1) if sim.size >= rows * dim else np.empty(rows * dim)
    for r in blocks:
        d_r, z_r = d_z[r], z[r]
        tmp = scratch[:d_r.size].reshape(d_r.shape)
        inner = np.sum(np.multiply(d_r, z_r, out=tmp), axis=1, keepdims=True)
        np.subtract(d_r, np.multiply(inner, z_r, out=tmp), out=out[r])
        out[r] /= norms[r, None]
    return out


def scl_loss(features: np.ndarray, labels: np.ndarray, tau: float,
             out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over L2-normalized feature rows: ``scl_loss_pass``
    then ``scl_grad_pass``. Returns the summed loss over anchors and its gradient
    w.r.t. the raw features, written into ``out`` when given. ``features`` is left as
    it is unless ``out`` is ``features`` itself: then the pass consumes it and it
    takes the gradient; else the pass takes a copy. The peak is the n x n buffer, the
    normalized features and their product with it.
    """
    if out is not features:
        features = np.array(features, dtype=np.float64)
    state = scl_loss_pass(features, labels, tau)
    return state.loss, scl_grad_pass(state, out)


class PenaltyPart(NamedTuple):
    """Regular entries that lie end to end in the layout: ``grad`` is their range of
    the layout vector, and ``anchor`` the anchor's values there. The penalty sums a
    part's terms in one reduction."""
    grad: slice
    anchor: np.ndarray


@dataclass(frozen=True)
class Penalty:
    """The pull-to-pretrained term of one run, resolved once.

    ``parts`` covers the trainable entries of the regular layers, in layout
    order; it is empty when the penalty is off. ``index`` is the masks'
    ``positions``, the one map from their layout to the model's parameter
    vector: ``reg_penalty`` gathers every trainable entry through it, and each
    part reads its own layout range of that gather. Under masks that are not
    all full, a part covers a run of consecutive regular layers and the
    anchor's values are copies. Under all-full masks ``index`` is None, as the
    layout is the parameter vector: the parts are the segments, read in place
    against views of the anchor's arrays, so the anchor must not change. Frozen
    entries equal the anchor bit for bit, so their term is exactly zero and the
    penalty skips them. The loss is summed part by part, in layout order.
    """
    cfg: RegConfig
    index: np.ndarray | None
    parts: tuple[PenaltyPart, ...]
    scale: float = field(init=False)  # of each entry's gradient term: 2 * lambda (l2) or lambda

    def __post_init__(self):
        object.__setattr__(self, "scale", self.cfg.lam * (2.0 if self.cfg.norm == "l2" else 1.0))

    def views(self, grad: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each part's range of ``grad``, a vector in the layout the penalty was resolved in."""
        return tuple(grad[part.grad] for part in self.parts)


def resolve_penalty(anchor: Sequence[Layer], cfg: RegConfig, masks: GradientMaskSet) -> Penalty:
    """The penalty towards the weights and biases of ``anchor``, one layer per mask, over
    the entries ``masks`` leave trainable. The regular set must fit ``anchor`` whether or
    not the penalty is on."""
    masks.check_shapes(anchor)
    regular = resolve_regular_layers(len(anchor), cfg.regular)
    if cfg.norm == "none" or cfg.lam == 0.0:
        regular = []
    if masks.positions is None:  # each segment in place, against a view of the anchor
        return Penalty(cfg, None, tuple(
            PenaltyPart(slice(s.offset, s.offset + s.size),
                        getattr(anchor[s.layer], s.param).reshape(-1))
            for i in regular for s in masks.segments[2 * i:2 * i + 2]))
    runs = []  # runs of consecutive regular layers: their segments lie end to end
    for i in regular:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    parts = []
    for run in runs:
        segments = masks.segments[2 * run[0]:2 * run[-1] + 2]
        stop = segments[-1].offset + segments[-1].size
        parts.append(PenaltyPart(slice(segments[0].offset, stop), np.concatenate(
            [getattr(anchor[s.layer], s.param)[s.index].ravel() for s in segments])))
    return Penalty(cfg, masks.positions, tuple(parts))


def reg_penalty(model: ModelParams | RowParams, penalty: Penalty, grad: np.ndarray,
                views: tuple[np.ndarray, ...] | None = None) -> float:
    """Distance penalty lambda * sum over regular layers of |W - W_pre| (l2 squared or l1).

    Biases of regular layers are penalized symmetrically. sign(0) = 0 for l1.
    The gradient is added in place into ``grad``, a vector in the flat layout
    of the masks ``penalty`` was resolved with, through ``views``, its ``penalty.views``
    (a run resolves them once); entries outside the regular layers are left as they
    are. Returns the loss: lambda times the sum, part by part in layout order, of each
    part's terms summed in one ``np.add.reduce``.
    """
    if not penalty.parts:
        return 0.0
    scale, l2 = penalty.scale, penalty.cfg.norm == "l2"
    values = model.params if penalty.index is None else model.params[penalty.index]
    loss = 0.0
    for part, g in zip(penalty.parts, views or penalty.views(grad)):
        d = values[part.grad] - part.anchor
        if l2:
            g += scale * d
            d *= d
        else:
            g += scale * np.sign(d)
            np.abs(d, out=d)
        loss += float(np.add.reduce(d))
    return penalty.cfg.lam * loss


def combined_grad(model: ModelParams | RowParams, masks: GradientMaskSet, penalty: Penalty,
                  x_batch: np.ndarray, labels: np.ndarray, anchor: RowAnchor | None = None,
                  out: np.ndarray | None = None, views: tuple = (None, None)
                  ) -> tuple[float, float, np.ndarray]:
    """Cross-entropy plus distance penalty; returns (total loss, ce loss, gradient).

    The gradient is one vector in the flat layout of ``masks``, the masks
    ``penalty`` was resolved with: ``backward``'s cross-entropy gradient, written
    into ``out`` when given (a training run passes its one vector on every step),
    with the penalty's added in place, through ``views``: ``out``'s ``backprop_views``
    and ``penalty.views``, resolved once per run. ``anchor`` is passed on to ``forward``.
    """
    logits, _, cache = forward(model, x_batch, anchor)
    ce, d_logits = cross_entropy(logits, labels)
    grad = backward(model, cache, masks, d_logits=d_logits, out=out, views=views[0])
    return ce + reg_penalty(model, penalty, grad, views[1]), ce, grad
