"""Masked Adam and the cosine-decay schedule with linear warmup.

Adam keeps moments for the trainable entries alone, in the mask set's flat
layout, which the gradient vector shares. It writes its update back into the
model's parameter vector through the mask set's ``positions``, the one map
from that layout to the vector: one scatter, or one in-place subtraction when
``positions`` is None (every mask full, so the layout is the vector). Frozen
entries are never touched, and a masked trajectory is exactly an unmasked Adam
trajectory on pre-zeroed gradients. Epsilon sits inside the square root:
W <- W - lr * m_hat / sqrt(v_hat + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .masking import GradientMaskSet
from .model import ModelParams, RowParams

# entries per pass of the fused update: two float64 work buffers of this
# length stay in cache, however many entries train
_CHUNK = 1 << 15


@dataclass(frozen=True)
class OptimConfig:
    base_lr: float
    total_epochs: int
    warmup_epochs: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(f"need 0 <= warmup ({self.warmup_epochs}) "
                              f"< total ({self.total_epochs})")


@dataclass
class AdamState:
    """Adam moments over every trainable entry, and the step count.

    ``m`` and ``v`` are vectors in the masks' flat layout
    (``GradientMaskSet.segments``): layer 0's ``weight[wi]`` then its
    ``bias[bi]``, then layer 1's, each in C order.
    """
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @property
    def nbytes(self) -> int:
        return self.m.nbytes + self.v.nbytes


def init_adam_state(model: ModelParams | RowParams, masks: GradientMaskSet) -> AdamState:
    """Zero moments, one per entry of the masks' flat layout."""
    masks.check_shapes(model.layers)
    return AdamState(np.zeros(masks.size), np.zeros(masks.size))


def cosine_warmup_lr(epoch: int, cfg: OptimConfig) -> float:
    """Linear warmup from 0 over the first warmup epochs, cosine decay to 0 after."""
    if not 0 <= epoch <= cfg.total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.total_epochs}]")
    w, t = cfg.warmup_epochs, cfg.total_epochs
    if epoch < w:
        return cfg.base_lr * epoch / w
    return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - w) / (t - w)))


def adam_views(state: AdamState, grad: np.ndarray) -> tuple:
    """What ``masked_adam_step`` reads and writes of ``grad``, ``m`` and ``v``: per chunk of up
    to ``_CHUNK`` entries, the views of the three."""
    return tuple(tuple(a[at:at + _CHUNK] for a in (grad, state.m, state.v))
                 for at in range(0, grad.size, _CHUNK))


def masked_adam_step(model: ModelParams | RowParams, state: AdamState, grad: np.ndarray,
                     masks: GradientMaskSet, lr: float, cfg: OptimConfig,
                     views: tuple | None = None) -> tuple[ModelParams | RowParams, AdamState]:
    """One Adam step on the mask-selected entries, in place.

    ``grad`` is the gradient vector in the flat layout of ``masks``, as
    ``backward`` and ``combined_grad`` return it. Nothing changes unless every
    gradient entry is finite, and so is the second moment the step would store
    (``inf`` there would freeze the entry for good, as an entry beyond about
    1e154 gives): a finite squared norm shows both in one pass, and only where
    that norm is not finite do two more passes, chunk by chunk, check the
    entries and then form the second moment in the step's scratch. So a finite
    gradient whose squares overflow but whose second moment does not still
    steps (after numpy's overflow warning, which the CLI silences).
    The update then runs as one elementwise pass over the vector, chunk by chunk,
    and is subtracted from the parameter vector at the masks' entries alone, so
    frozen entries stay bitwise put: through one scatter to ``masks.positions``,
    or in place when that is None. ``grad`` is the step's scratch: on return it
    holds the update subtracted from the parameters, not the gradient. ``views``
    are the step's ``adam_views``, resolved once per run. Returns the same model
    and state.
    """
    if not grad.shape == state.m.shape == (masks.size,):
        raise ShapeError(f"gradient shape {grad.shape} is not the layout's ({masks.size},)")
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    slow = not math.isfinite(np.dot(grad, grad))
    if slow:
        for a in range(0, grad.size, _CHUNK):
            if not np.logical_and.reduce(np.isfinite(grad[a:a + _CHUNK])):
                raise NumericError("non-finite gradient entry")
    chunks = views or adam_views(state, grad)
    s1 = np.empty(min(_CHUNK, grad.size))  # per step: a run's would raise the run's peak
    if slow:
        s2 = np.empty_like(s1)
        for gc, _, v in chunks:  # the second moment the step would store
            t1, t2 = s1[:gc.size], s2[:gc.size]
            np.multiply(v, b2, out=t2)
            t2 += np.multiply(np.multiply(1.0 - b2, gc, out=t1), gc, out=t1)
            if not np.maximum.reduce(t2) < np.inf:
                raise NumericError("Adam's second moment overflows: a gradient entry is "
                                   "too large to square")
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for gc, m, v in chunks:
        t1 = s1[:gc.size]
        # the per-entry formula, operand for operand, the update formed in g's spent chunk
        m *= b1
        m += np.multiply(1.0 - b1, gc, out=t1)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, gc, out=t1), gc, out=t1)
        np.sqrt(np.add(np.divide(v, bc2, out=t1), eps, out=t1), out=t1)
        np.divide(np.multiply(lr, np.divide(m, bc1, out=gc), out=gc), t1, out=gc)
    if masks.positions is None:
        np.subtract(model.params, grad, out=model.params)
    else:
        model.params[masks.positions] -= grad
    return model, state
