import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from masktune import harness, init_model
from masktune.errors import NumericError, ShapeError, StateError
from masktune.linalg import Rng
from masktune.losses import resolve_penalty, resolve_regular_layers, scl_loss
from masktune.masking import GradientMaskSet, LayerMask
from masktune.model import (CHECKPOINT_MAGIC, Layer, ModelParams, RowParams, backward, forward,
                            layer_roles, reinit_head, row_anchor)

# layer 1 of 192 x 192 = 36,864 weights is wide enough for the row path
ROW_PATH_DIMS = [6, 192, 192, 3]


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


def frobenius_sq(a):
    """Sum of squared entries: the objectives' sum, written with a temporary."""
    return float(np.sum(a * a))


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


def oracle_scl_gradients(pre, x, y, tau):
    """Test oracle: ``masking.scl_gradients`` as written before it kept the head input's
    ReLU mask in the cache, wrote the feature gradient into the features' buffer and took
    selection's ``z1``: the dense forward, a fresh ``scl_loss`` gradient, divided by the
    batch size, and ``backward``."""
    _, features, cache = forward(pre, x)
    _, d_features = scl_loss(features, y, tau)
    d_features /= len(y)
    masks = GradientMaskSet.all_full(pre)
    grad = backward(pre, cache, masks, d_features=d_features)
    if not np.isfinite(np.dot(grad, grad)):
        raise NumericError(f"contrastive gradient at tau={tau}: its squared norm is not finite")
    return [s.view(grad) for s in masks.segments[::2]]


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


def oracle_forward(model, x_batch, anchor=None):
    """Test oracle: the forward pass as written before it applied the bias and
    the ReLU in place, and, given the ``RowAnchor`` of a ``RowParams``'s batch, layers
    0 and 1 from ``oracle_row_bottom``. Returns (logits, the inputs of each layer)."""
    a = np.asarray(x_batch, dtype=np.float64)
    inputs, start = [], 0
    if anchor is not None:
        inputs, start = [a], 2
        bottom, a = oracle_row_bottom(model, a, anchor)
        inputs.append(bottom)
    head = len(model.layers) - 1
    for i, layer in enumerate(model.layers[start:], start):
        inputs.append(a)
        z = a @ layer.weight.T + layer.bias
        a = z if i == head else np.maximum(z, 0.0)
    return a, inputs


def oracle_row_bottom(model, x, anchor):
    """Test oracle: the row path's activations of layers 0 and 1 (``model._row_bottom``)
    as written before the layers held their weights' transposes."""
    def dense(a, layer, relu):
        z = a @ layer.weight.T
        z += layer.bias
        if relu:
            np.maximum(z, 0.0, out=z)
        return z

    rows0, rows1, first = model.rows0, model.rows1, model.layers[0]
    k = first.out_dim
    if k == 1:  # a matrix-vector product would round apart from the dense forward's
        first = Layer(first.weight[[0, 0]], first.bias[[0, 0]])
    a = anchor.a0_whole.copy()
    trained = dense(x, first, True)[:, :k]
    change = trained - a[:, rows0]
    a[:, rows0] = trained
    z = change @ model.w1_columns().T
    z += anchor.z1
    z[:, rows1] = dense(a, model.layers[1], False)
    np.maximum(z, 0.0, out=z)
    return a, z


def oracle_backward(model, cache, masks, d_logits=None, d_features=None, out=None):
    """Test oracle: ``backward`` as written before a run resolved its views of the
    gradient vector once: each step slices its weight and bias segments out of ``out``."""
    if cache.model is not model:
        raise StateError("cache does not belong to this model")
    if (d_logits is None) == (d_features is None):
        raise ValueError("provide exactly one of d_logits or d_features")
    if out is None:
        out = np.empty(masks.size)
    elif not (out.dtype == np.float64 and out.shape == (masks.size,) and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 vector of {masks.size} entries")

    n = len(model.layers)
    start = n - 1 if d_logits is not None else n - 2
    upstream = np.asarray(d_logits if d_logits is not None else d_features, dtype=np.float64)
    for step in masks.backprop:
        l, rows = step.layer, step.rows
        w_seg, b_seg = masks.segments[2 * l:2 * l + 2]
        weight_at, bias_at = (slice(s.offset, s.offset + s.size) for s in (w_seg, b_seg))
        if l > start:  # the head, on the d_features path
            out[weight_at.start:bias_at.stop] = 0.0
            continue
        if l == n - 1:
            delta = upstream[:, rows]
        elif l == start:  # ReLU'(z) = max(z, 0) > 0, read off the next layer's input;
            delta = upstream[:, rows]  # in place: in d_features itself, unless rows gathers
            delta *= cache.inputs[l + 1][:, rows] > 0.0
        else:  # in place, so at most two layers' deltas live beside the vector
            if l == 0 and isinstance(model, RowParams):  # rows is rows0
                delta = delta @ model.w1_columns()
            else:
                delta = delta @ model.layers[l + 1].weight[:, rows]
            delta *= cache.inputs[l + 1][:, rows] > 0.0
        x, w_out = cache.inputs[l], out[weight_at].reshape(w_seg.shape)
        if step.kind == "full":
            np.matmul(delta.T, x, out=w_out)
        elif step.kind == "row":
            np.matmul(delta[:, step.index].T, x, out=w_out)
        elif step.kind == "col":
            np.matmul(delta.T, x[:, step.index], out=w_out)
        else:  # sparse: gathered from the full product
            w_out[...] = (delta.T @ x)[step.index]
        if step.bias_index is ...:
            np.add.reduce(delta, axis=0, out=out[bias_at])
        elif step.bias_index is not None:
            out[bias_at] = np.add.reduce(delta, axis=0)[step.bias_index]
    return out


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


def oracle_penalty_terms(model, anchor, cfg, masks, grad):
    """Test oracle: the penalty towards the layers ``anchor`` as written before it
    read the parameter vector in one gather: per segment of each regular layer, a
    fancy-indexed gather of the model's entries less the anchor's, and its gradient,
    added into ``grad``. Returns the terms (squared or absolute differences) of each
    part the penalty sums at once, in layout order: each regular segment under all-full
    masks, else each run of consecutive regular layers."""
    if cfg.norm == "none" or cfg.lam == 0.0:
        return []
    lam, parts, last = cfg.lam, [], None
    for i in resolve_regular_layers(len(masks.layers), cfg.regular):
        for seg in masks.segments[2 * i:2 * i + 2]:
            d = getattr(model.layers[i], seg.param)[seg.index] - \
                getattr(anchor[i], seg.param)[seg.index]
            g = seg.view(grad)
            if cfg.norm == "l2":
                term = d * d
                g += 2.0 * lam * d
            else:
                term = np.abs(d)
                g += lam * np.sign(d)
            if masks.positions is None or seg.param == "weight" and last != i - 1:
                parts.append([])
            parts[-1].append(term.ravel())  # C order, the layout's
        last = i
    return [np.concatenate(part) for part in parts]


def oracle_reg_penalty(model, anchor, cfg, masks, grad):
    """Test oracle: ``oracle_penalty_terms``, its gradient added into ``grad``. Returns
    the loss: lambda times the sum, part by part in layout order, of each part's terms
    summed in one ``np.add.reduce``."""
    loss = 0.0
    for terms in oracle_penalty_terms(model, anchor, cfg, masks, grad):
        loss += float(np.add.reduce(terms))
    return cfg.lam * loss


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


def oracle_finetune_with_masks(pre, task, cfg, score):
    """The trained model and per-epoch ``EpochStats`` of ``harness._finetune_with_masks``
    as it ran when it evaluated after each epoch on both paths: on the row path the
    test set's anchor is built before training, beside the training set's, and each
    epoch is evaluated as it ends, at the weights training holds then."""
    _, masks, train_rows = score(pre, task, cfg)
    rows = None if train_rows is None else (masks.layers[0].index, masks.layers[1].index)
    model = reinit_head(pre, task.target_train.num_classes,
                        Rng(cfg.seed).child(harness._STREAM_HEAD), rows)
    held, run_masks, test_rows = 0, masks, None
    if rows is not None:
        held, run_masks = 2, replace(masks, rows_held=2)
        test_rows = row_anchor(pre, task.target_test.x)
    anchor = (*(l.copy() for l in model.layers[:held]), *pre.layers[held:-1],
              model.layers[-1].copy())
    epochs = harness._train(model, run_masks, resolve_penalty(anchor, cfg.reg, run_masks),
                            task.target_train, cfg.optim, cfg.batch_size,
                            Rng(cfg.seed).child(harness._STREAM_SHUFFLE), train_rows)
    stats = [harness.EpochStats(epoch, lr, loss_r, ce,
                                harness.evaluate(model, task.target_test, test_rows))
             for epoch, lr, loss_r, ce, _ in epochs]
    return model.to_model() if held else model, stats
