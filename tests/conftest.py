import json

import numpy as np
import pytest

from masktune import init_model
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
