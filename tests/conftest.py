import json

import numpy as np
import pytest

from masktune import init_model
from masktune.errors import NumericError
from masktune.linalg import Rng
from masktune.masking import GradientMaskSet, LayerMask


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)


def small_model(dims=(4, 6, 5, 3), seed=7):
    return init_model(list(dims), seed=seed)


def sparse_from_bits(bits):
    """The sparse mask that trains exactly the 1 entries of a 0/1 matrix."""
    return LayerMask("sparse", bits.shape, tuple(tuple(np.flatnonzero(row)) for row in bits))


def read_masks(path):
    """The mask set a document written by save_masks describes."""
    doc = json.loads(path.read_text())
    return GradientMaskSet(tuple(LayerMask(m["variant"], tuple(m["shape"]), m["indices"])
                                 for m in doc["layers"]))


def random_batch(rng, n, dim, classes):
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def grad_rel_err(a, b):
    """Frobenius relative error between two gradient arrays."""
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def layer_grads(masks, grad):
    """Each layer's (weight, bias) gradient: the segment views of a layout vector."""
    s = masks.segments
    return [(s[i].view(grad), s[i + 1].view(grad)) for i in range(0, len(s), 2)]


def gathered(masks, grads):
    """Full-shape (weight, bias) gradients per layer, gathered into the masks' layout vector."""
    params = [dict(zip(("weight", "bias"), g)) for g in grads]
    return np.concatenate([params[s.layer][s.param][s.index].ravel() for s in masks.segments])


def finite_diff_grad(f, at, h):
    """Central-difference gradient of a scalar function, entry by entry.

    Test oracle only: O(rows*cols) evaluations of ``f``.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    grad = np.zeros_like(at, dtype=np.float64)
    for idx in np.ndindex(at.shape):
        xp = at.copy()
        xp[idx] += h
        xm = at.copy()
        xm[idx] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value at entry {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad
