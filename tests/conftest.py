import csv
import json
import tracemalloc

import numpy as np
import pytest

from masktune import init_model
from masktune.errors import NumericError
from masktune.linalg import Rng
from masktune.losses import resolve_regular_layers
from masktune.masking import GradientMaskSet, LayerMask
from masktune.model import CHECKPOINT_MAGIC, ModelParams, RowParams, layer_roles


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)


def small_model(dims=(4, 6, 5, 3), seed=7):
    return init_model(list(dims), seed=seed)


def copy_model(model):
    """A model over a copy of ``model``'s parameter vector."""
    return ModelParams(model.params.copy(), model.dims)


def row_params(pre, model, masks):
    """The ``RowParams`` over ``pre`` that holds the rows of ``model``'s layers 0 and 1 the
    row masks of ``masks`` train, then a copy of ``model``'s layers 2 and up."""
    rows = tuple(m.index for m in masks.layers[:2])
    trained = [np.concatenate([l.weight[r].ravel(), l.bias[r]]) for l, r in zip(model.layers, rows)]
    upper = model.layer_range(2, len(model.layers)).params
    return RowParams(pre, *rows, np.concatenate([*trained, upper]), model.dims)


def sparse_from_bits(bits):
    """The sparse mask that trains exactly the 1 entries of a 0/1 matrix."""
    return LayerMask("sparse", bits.shape, bits != 0)


def sparse_from_lists(shape, per_row):
    """The sparse mask that trains, in each row, the columns its list names."""
    bits = np.zeros(shape, dtype=bool)
    for i, cols in enumerate(per_row):
        bits[i, list(cols)] = True
    return LayerMask("sparse", shape, bits)


def bias_mask(mask):
    """0/1 trainability of each output neuron's bias, read off the mask's trainable index."""
    b = np.zeros(mask.shape[0])
    b[mask.trainable[1]] = 1.0
    return b


def read_masks(path):
    """The mask set a document written by save_masks describes."""
    doc = json.loads(path.read_text())
    return GradientMaskSet(tuple(
        sparse_from_lists(tuple(m["shape"]), m["indices"]) if m["variant"] == "sparse"
        else LayerMask(m["variant"], tuple(m["shape"]), m["indices"]) for m in doc["layers"]))


def oracle_topk(scores, k):
    """Test oracle: the top-k selection of a 1-D score vector as written before
    ``topk_indices`` worked along the last axis; a sorted tuple of ints."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def oracle_topk_rows(scores, k):
    """Test oracle: ``topk_indices`` as written before it took the k-th value by
    partition: a stable argsort of the negated scores along the last axis, whose first
    k are the k largest, ties to the lowest index, then sorted."""
    return np.sort(np.argsort(-np.asarray(scores), axis=-1, kind="stable")[..., :k], axis=-1)


def oracle_build_mask(h, k, variant):
    """Test oracle: the JSON index lists of ``build_mask(h, k, variant)`` as
    built before sparse masks held a boolean matrix, one ``oracle_topk`` per row."""
    if variant == "row":
        return list(oracle_topk(np.sum(h * h, axis=1), k))
    if variant == "col":
        return list(oracle_topk(np.sum(h * h, axis=0), k))
    return [list(oracle_topk(np.abs(h[i]), k)) for i in range(h.shape[0])]


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


def peak_bytes(fn):
    """Peak tracemalloc bytes above the starting level while ``fn()`` runs,
    what it returns included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def oracle_scl_loss(features, labels, tau):
    """Test oracle: the contrastive loss as written before it reused one n x n
    buffer in place (an ``np.eye`` mask, ``np.where`` copies, a separate
    softmax and ``g + g.T``). ``scl_loss`` must match it bit for bit."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch = features.shape[0]
    norms = np.linalg.norm(features, axis=1)
    z = features / norms[:, None]

    sim = (z @ z.T) / tau
    off_diag = ~np.eye(batch, dtype=bool)
    positives = (labels[:, None] == labels[None, :]) & off_diag
    n_pos = positives.sum(axis=1)
    valid = n_pos > 0

    row_max = np.where(off_diag, sim, -np.inf).max(axis=1)
    exp_shift = np.where(off_diag, np.exp(sim - row_max[:, None]), 0.0)
    lse = row_max + np.log(exp_shift.sum(axis=1))

    mean_pos_sim = (positives * sim).sum(axis=1) / np.maximum(n_pos, 1)
    per_anchor = np.where(valid, lse - mean_pos_sim, 0.0)
    loss = float(per_anchor.sum())

    softmax = exp_shift / exp_shift.sum(axis=1, keepdims=True)
    g = np.where(valid[:, None], softmax - positives / np.maximum(n_pos, 1)[:, None], 0.0)
    d_z = (g + g.T) @ z / tau

    inner = np.sum(d_z * z, axis=1, keepdims=True)
    d_features = (d_z - inner * z) / norms[:, None]
    return loss, d_features


def oracle_whole_matrix_scl_loss(features, labels, tau):
    """Test oracle: the contrastive loss as written before its row-wise passes ran
    block by block: one ``n x n`` boolean of the positive pairs, every pass over the
    whole buffer, and ``sim += sim.T`` (numpy copies the transposed operand).
    ``scl_loss`` must match it bit for bit."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    norms = np.linalg.norm(features, axis=1)
    z = features / norms[:, None]

    sim = z @ z.T
    sim /= tau
    positives = labels[:, None] == labels[None, :]
    np.fill_diagonal(positives, False)
    n_pos = positives.sum(axis=1)
    valid = n_pos > 0
    denom = np.maximum(n_pos, 1)
    mean_pos_sim = (positives * sim).sum(axis=1) / denom

    np.fill_diagonal(sim, -np.inf)
    row_max = sim.max(axis=1)
    sim -= row_max[:, None]
    np.exp(sim, out=sim)
    sums = sim.sum(axis=1)
    lse = row_max + np.log(sums)

    per_anchor = np.where(valid, lse - mean_pos_sim, 0.0)
    loss = float(per_anchor.sum())

    sim /= sums[:, None]
    sim -= positives / denom[:, None]
    sim[~valid] = 0.0
    sim += sim.T
    d_z = sim @ z
    d_z /= tau

    inner = np.sum(d_z * z, axis=1, keepdims=True)
    d_z -= inner * z
    d_z /= norms[:, None]
    return loss, d_z


def oracle_cross_entropy(logits, labels):
    """Test oracle: the cross-entropy as written before it called its reductions'
    ufuncs straight (``ndarray.max``, ``np.sum`` and ``np.mean``, a fresh gradient
    array and a two-array fancy index). ``cross_entropy`` must match it bit for bit."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.sum(exp, axis=1, keepdims=True)
    rows = np.arange(batch)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, labels]))
    d_logits = exp / total
    d_logits[rows, labels] -= 1.0
    d_logits /= batch
    return loss, d_logits


def oracle_forward(model, x_batch):
    """Test oracle: the forward pass as written before it applied the bias and
    the ReLU in place. Returns (logits, the inputs of each layer)."""
    a = np.asarray(x_batch, dtype=np.float64)
    inputs = []
    head = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        inputs.append(a)
        z = a @ layer.weight.T + layer.bias
        a = z if i == head else np.maximum(z, 0.0)
    return a, inputs


def oracle_masked_adam_step(model, state, grad, masks, lr, cfg):
    """Test oracle: the masked Adam step as written before it wrote back in one
    scatter: the per-entry update over the layout vector, then one fancy-indexed
    subtraction per layout segment. ``grad`` is left as it is."""
    state.t += 1
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    update = lr * (state.m / bc1) / np.sqrt(state.v / bc2 + eps)
    for seg in masks.segments:
        getattr(model.layers[seg.layer], seg.param)[seg.index] -= seg.view(update)


def oracle_reg_penalty(model, anchor, cfg, masks, grad):
    """Test oracle: the penalty towards the layers ``anchor`` as written before it
    read the parameter vector in one gather: per segment of each regular layer, a
    fancy-indexed gather of the model's entries less the anchor's, its sum and its
    gradient, added into ``grad``. Returns the loss."""
    if cfg.norm == "none" or cfg.lam == 0.0:
        return 0.0
    lam, sums = cfg.lam, []
    for i in resolve_regular_layers(len(masks.layers), cfg.regular):
        for seg in masks.segments[2 * i:2 * i + 2]:
            d = getattr(model.layers[i], seg.param)[seg.index] - \
                getattr(anchor[i], seg.param)[seg.index]
            g = seg.view(grad)
            if cfg.norm == "l2":
                sums.append(float(np.sum(d * d)))
                g += 2.0 * lam * d
            else:
                sums.append(float(np.sum(np.abs(d))))
                g += lam * np.sign(d)
    loss = 0.0
    for weight_sum, bias_sum in zip(sums[::2], sums[1::2]):
        loss += lam * (weight_sum + bias_sum)
    return loss


def oracle_save_checkpoint(model, path):
    """Test oracle: the checkpoint writer as it was before it wrote the parameter
    vector in one go: the magic line, the header, then per layer the weight
    (row-major) and the bias as little-endian float64."""
    header = json.dumps({"dims": model.dims, "roles": layer_roles(len(model.layers))})
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header.encode() + b"\n")
        for layer in model.layers:
            fh.write(np.ascontiguousarray(layer.weight, dtype="<f8"))
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8"))


def oracle_save_dataset_csv(data, path):
    """Test oracle: the dataset writer as it was before it joined its lines itself: a
    ``csv.writer`` row for the header, then one per sample, its label then its features
    in ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{i}" for i in range(data.x.shape[1])])
        for label, row in zip(data.y, data.x):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
