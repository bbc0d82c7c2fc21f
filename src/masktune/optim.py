"""Masked Adam and the cosine-decay schedule with linear warmup.

Adam reads and writes only the trainable slice of each layer, given by its
mask's index, and keeps moments for that slice alone. Frozen entries are never
touched, and a masked trajectory is exactly an unmasked Adam trajectory on
pre-zeroed gradients. Epsilon sits inside the square root:
W <- W - lr * m_hat / sqrt(v_hat + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .masking import GradientMaskSet
from .model import GradientSet, LayerGrad, ModelParams


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
    """Adam moments over the trainable slice of each layer, and the step count.

    ``m.layers[i].weight`` holds one moment per entry of
    ``weight[masks.layers[i].trainable[0]]``, and likewise for the biases.
    """
    m: GradientSet
    v: GradientSet
    t: int = 0

    @property
    def nbytes(self) -> int:
        return sum(g.weight.nbytes + g.bias.nbytes for s in (self.m, self.v) for g in s.layers)


def init_adam_state(model: ModelParams, masks: GradientMaskSet) -> AdamState:
    """Zero moments sized to each layer's trainable slice."""
    def zeros() -> GradientSet:
        return GradientSet([LayerGrad(np.zeros_like(l.weight[m.trainable[0]]),
                                      np.zeros_like(l.bias[m.trainable[1]]))
                            for l, m in zip(model.layers, masks.layers)])
    return AdamState(zeros(), zeros())


def cosine_warmup_lr(epoch: int, cfg: OptimConfig) -> float:
    """Linear warmup from 0 over the first warmup epochs, cosine decay to 0 after."""
    if not 0 <= epoch <= cfg.total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.total_epochs}]")
    w, t = cfg.warmup_epochs, cfg.total_epochs
    if epoch < w:
        return cfg.base_lr * epoch / w
    return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - w) / (t - w)))


def masked_adam_step(model: ModelParams, state: AdamState, grad: GradientSet,
                     masks: GradientMaskSet, lr: float,
                     cfg: OptimConfig) -> tuple[ModelParams, AdamState]:
    """One Adam step on the mask-selected entries, in place.

    ``grad`` holds each layer's gradient over its trainable slice, as
    ``backward`` returns it. Only ``weight[index]`` and ``bias[index]`` of
    each layer's trainable index are read and written, so frozen entries stay
    bitwise put. Returns the same model and state.
    """
    for g, m in zip(grad.layers, state.m.layers):
        if g.weight.shape != m.weight.shape or g.bias.shape != m.bias.shape:
            raise ShapeError("gradients must be shaped like the trainable slices")
        if not (np.all(np.isfinite(g.weight)) and np.all(np.isfinite(g.bias))):
            raise NumericError("non-finite gradient entry")
    state.t += 1
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for layer, g, mask, m, v in zip(model.layers, grad.layers, masks.layers,
                                    state.m.layers, state.v.layers):
        wi, bi = mask.trainable
        for param, index, grad_slice, m_slice, v_slice in (
                (layer.weight, wi, g.weight, m.weight, v.weight),
                (layer.bias, bi, g.bias, m.bias, v.bias)):
            m_slice *= b1
            m_slice += (1.0 - b1) * grad_slice
            v_slice *= b2
            v_slice += (1.0 - b2) * grad_slice * grad_slice
            param[index] -= lr * (m_slice / bc1) / np.sqrt(v_slice / bc2 + eps)
    return model, state
