"""Property tests over random shapes, masks, models and datasets.

The dense masked Adam step below is the step the package used before Adam
touched only the trainable slice; it stays here as the oracle the sliced step
must match bit for bit. ``dense_backward`` is the backward pass the package
used before it computed only the trainable slices: full-shape gradients for
every layer, the oracle for ``backward``'s slices. Likewise ``csv_module_reader`` is the dataset reader
the package used before numpy's C parser, kept as the oracle for
``load_dataset_csv``, and ``dense_objective``/``dense_retained`` are the
formulas ``mask_objective``/``retained_energy`` used before they read the
mask's trainable index. ``oracle_build_mask`` (in conftest) is the per-row
top-k loop ``build_mask`` ran before sparse masks held a boolean matrix, and
``oracle_save_dataset_csv`` (in conftest) the ``csv.writer`` loop
``save_dataset_csv`` ran before it joined its lines itself. ``oracle_train`` is
``harness._train`` as a loop of the per-function oracles, which slice their views of
the gradient vector, the moments and the parameters afresh on every step, as the
package did before a run resolved them once.
"""

import csv
import json
import math
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (ROW_PATH_DIMS, bias_mask, copy_model, finite_diff_grad, frobenius_sq,
                      gathered,
                      grad_rel_err, layer_grads, oracle_backward, oracle_build_mask,
                      oracle_cross_entropy, oracle_forward, oracle_topk_rows,
                      oracle_masked_adam_step,
                      oracle_penalty_terms, oracle_reg_penalty, oracle_save_checkpoint,
                      oracle_save_dataset_csv,
                      oracle_scl_loss,
                      oracle_whole_matrix_scl_loss, read_masks,
                      row_params, sparse_from_bits, sparse_from_lists)
from masktune import harness
from masktune.data import Dataset, ShiftConfig, gen_task, load_dataset_csv, save_dataset_csv
from masktune.config import load_run_config, parse_run_config
from masktune.errors import ConfigError, InputError, NumericError
from masktune.harness import FineTuneConfig, evaluate, finetune_masks
from masktune.losses import (
    RegConfig,
    RegularSet,
    combined_grad,
    cross_entropy,
    reg_penalty,
    resolve_penalty,
    resolve_regular_layers,
    scl_loss,
)
from masktune.linalg import Rng
from masktune.masking import (
    GradientMaskSet,
    LayerMask,
    brute_force_best_rows,
    build_mask,
    mask_objective,
    masks_to_doc,
    retained_energy,
    save_masks,
    topk_indices,
)
from masktune.model import (
    CHECKPOINT_MAGIC,
    ForwardCache,
    Layer,
    ModelParams,
    RowParams,
    backward,
    forward,
    layer_roles,
    load_checkpoint,
    row_anchor,
    reinit_head,
    row_chunks,
    save_checkpoint,
)
from masktune.optim import (_CHUNK, AdamState, OptimConfig, cosine_warmup_lr, init_adam_state,
                            masked_adam_step)

VARIANTS = ("row", "col", "sparse", "bits", "full", "empty")
CFG = OptimConfig(base_lr=0.1, total_epochs=10)


@dataclass
class DenseAdamState:
    """The dense oracle's moments: one full-shape (weight, bias) pair per layer."""
    m: list
    v: list
    t: int = 0


def dense_masked_adam_step(model, state, grad, masks, lr, cfg):
    """Oracle: Adam over whole matrices, masked gradients, frozen entries restored."""
    t = state.t + 1
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    new_layers, new_m, new_v = [], [], []
    for layer, (g_w, g_b), mask, (m_w, m_b), (v_w, v_b) in zip(model.layers, grad, masks.layers,
                                                                 state.m, state.v):
        if not (np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_b))):
            raise NumericError("non-finite gradient entry")
        wm = mask.to_dense()
        bm = bias_mask(mask)
        gw = g_w * wm
        gb = g_b * bm
        mw = b1 * m_w + (1.0 - b1) * gw
        mb = b1 * m_b + (1.0 - b1) * gb
        vw = b2 * v_w + (1.0 - b2) * gw * gw
        vb = b2 * v_b + (1.0 - b2) * gb * gb
        weight = layer.weight - lr * (mw / bc1) / np.sqrt(vw / bc2 + eps)
        bias = layer.bias - lr * (mb / bc1) / np.sqrt(vb / bc2 + eps)
        weight = np.where(wm == 0.0, layer.weight, weight)
        bias = np.where(bm == 0.0, layer.bias, bias)
        new_layers.append(Layer(weight, bias))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return ModelParams.from_layers(new_layers), DenseAdamState(new_m, new_v, t)


def dense_zeros(model):
    """Full-shape zero (weight, bias) gradients per layer, the dense oracle's starting moments."""
    return [[np.zeros_like(l.weight), np.zeros_like(l.bias)] for l in model.layers]


def dense_random(rng, model):
    """Full-shape random (weight, bias) gradients per layer."""
    return [(rng.normal(size=l.weight.shape), rng.normal(size=l.bias.shape)) for l in model.layers]


def dense_backward(model, cache, d_logits=None, d_features=None):
    """Oracle: full-shape gradients of every layer, backprop down to the input layer."""
    grads = dense_zeros(model)
    n = len(model.layers)

    def preact(l):
        layer = model.layers[l]
        return cache.inputs[l] @ layer.weight.T + layer.bias

    if d_logits is not None:
        delta = np.asarray(d_logits, dtype=np.float64)
        start = n - 1
    else:
        d_out = np.asarray(d_features, dtype=np.float64)
        start = n - 2
        if start < 0:
            return grads  # head-only model: features are the raw input
        delta = d_out * (preact(start) > 0.0).astype(np.float64)

    for l in range(start, -1, -1):
        layer = model.layers[l]
        grads[l] = [delta.T @ cache.inputs[l], delta.sum(axis=0)]
        if l > 0:
            d_out = delta @ layer.weight
            delta = d_out * (preact(l - 1) > 0.0).astype(np.float64)
    return grads


def random_mask(rng, variant, shape):
    rows, cols = shape

    def subset(n, low):
        size = int(rng.integers(low, n + 1))
        return tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))

    if variant == "row":
        return LayerMask("row", shape, subset(rows, 1))
    if variant == "col":
        return LayerMask("col", shape, subset(cols, 1))
    if variant == "sparse":
        return sparse_from_lists(shape, tuple(subset(cols, 0) for _ in range(rows)))
    if variant == "bits":
        return sparse_from_bits((rng.uniform(size=shape) < 0.5).astype(float))
    if variant == "full":
        return LayerMask("full", shape)
    return LayerMask("row", shape, ())


def random_setup(seed, dims, variants):
    """A model with the given widths and one mask of each given variant per layer."""
    rng = np.random.default_rng(seed)
    layers = [Layer(rng.normal(size=(dims[i + 1], dims[i])), rng.normal(size=dims[i + 1]))
              for i in range(len(dims) - 1)]
    model = ModelParams.from_layers(layers)
    masks = GradientMaskSet(tuple(random_mask(rng, v, l.weight.shape)
                                  for v, l in zip(variants, layers)))
    return rng, model, masks


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def trainable_count(masks):
    return int(sum(m.to_dense().sum() + bias_mask(m).sum() for m in masks.layers))


setups = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.integers(1, 6), min_size=n + 1, max_size=n + 1),
    st.lists(st.sampled_from(VARIANTS), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(setup=setups, steps=st.integers(1, 20))
def test_sliced_step_matches_dense_oracle_bitwise(setup, steps):
    rng, model, masks = random_setup(*setup)
    start = copy_model(model)
    oracle = copy_model(model)
    state = init_adam_state(model, masks)
    oracle_state = DenseAdamState(dense_zeros(model), dense_zeros(model))
    for _ in range(steps):
        grad = dense_random(rng, model)
        lr = float(rng.uniform(1e-3, 0.1))
        model, state = masked_adam_step(model, state, gathered(masks, grad), masks, lr, CFG)
        oracle, oracle_state = dense_masked_adam_step(oracle, oracle_state, grad, masks, lr, CFG)
        for got, want in zip(model.layers, oracle.layers):
            assert bits(got.weight) == bits(want.weight)
            assert bits(got.bias) == bits(want.bias)
    assert state.t == oracle_state.t == steps
    for got, first, mask in zip(model.layers, start.layers, masks.layers):
        frozen_w = mask.to_dense() == 0.0
        frozen_b = bias_mask(mask) == 0.0
        assert bits(got.weight[frozen_w]) == bits(first.weight[frozen_w])
        assert bits(got.bias[frozen_b]) == bits(first.bias[frozen_b])


@pytest.mark.parametrize("seed", [0, 1])
def test_fused_step_matches_dense_oracle_across_chunk_boundaries(seed):
    # row, col, sparse and full slices laid end to end over more than two
    # chunks, so slices straddle chunk boundaries and the last chunk is ragged
    rng = np.random.default_rng(seed)
    dims = [160, 240, 200, 180, 10]
    model = ModelParams.from_layers([Layer(rng.normal(size=(dims[i + 1], dims[i])),
                                           rng.normal(size=dims[i + 1]))
                                     for i in range(len(dims) - 1)])

    def some(n, size):
        return tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))

    masks = GradientMaskSet((
        LayerMask("row", (240, 160), some(240, 170)),
        LayerMask("col", (200, 240), some(240, 150)),
        sparse_from_bits((rng.uniform(size=(180, 200)) < 0.5).astype(float)),
        LayerMask("full", (10, 180))))
    assert 2 * _CHUNK < trainable_count(masks) and trainable_count(masks) % _CHUNK
    start, oracle = copy_model(model), copy_model(model)
    state = init_adam_state(model, masks)
    oracle_state = DenseAdamState(dense_zeros(model), dense_zeros(model))
    for _ in range(4):
        grad = dense_random(rng, model)
        lr = float(rng.uniform(1e-3, 0.1))
        model, state = masked_adam_step(model, state, gathered(masks, grad), masks, lr, CFG)
        oracle, oracle_state = dense_masked_adam_step(oracle, oracle_state, grad, masks, lr, CFG)
        for got, want in zip(model.layers, oracle.layers):
            assert bits(got.weight) == bits(want.weight)
            assert bits(got.bias) == bits(want.bias)
    for got, first, mask in zip(model.layers, start.layers, masks.layers):
        frozen_w = mask.to_dense() == 0.0
        frozen_b = bias_mask(mask) == 0.0
        assert bits(got.weight[frozen_w]) == bits(first.weight[frozen_w])
        assert bits(got.bias[frozen_b]) == bits(first.bias[frozen_b])


# the masks a run can train under: drawn per layer, the linear probe's (empty row
# masks under a full head) or all full (no position index: the layout is the vector)
MASK_KINDS = st.sampled_from(["drawn", "head_only", "all_full"])


def masks_of_kind(model, masks, kind):
    if kind == "head_only":
        return GradientMaskSet.head_only(model)
    return GradientMaskSet.all_full(model) if kind == "all_full" else masks


@settings(max_examples=60, deadline=None)
@given(setup=setups, kind=MASK_KINDS)
def test_positions_pick_the_layout_out_of_the_parameter_vector(setup, kind):
    _, model, masks = random_setup(*setup)
    masks = masks_of_kind(model, masks, kind)
    want = gathered(masks, [(l.weight, l.bias) for l in model.layers])
    if all(m.variant == "full" for m in masks.layers):
        assert masks.positions is None
        assert bits(model.params) == bits(want)
    else:
        assert masks.positions.dtype == np.intp and not masks.positions.flags.writeable
        assert bits(model.params[masks.positions]) == bits(want)


@settings(max_examples=60, deadline=None)
@given(setup=setups, kind=MASK_KINDS, steps=st.integers(1, 6))
def test_one_scatter_step_matches_the_per_segment_loop_bitwise(setup, kind, steps):
    rng, model, masks = random_setup(*setup)
    masks = masks_of_kind(model, masks, kind)
    oracle = copy_model(model)
    state, oracle_state = init_adam_state(model, masks), init_adam_state(oracle, masks)
    for _ in range(steps):
        grad = rng.normal(size=masks.size)
        lr = float(rng.uniform(1e-3, 0.1))
        masked_adam_step(model, state, grad.copy(), masks, lr, CFG)
        oracle_masked_adam_step(oracle, oracle_state, grad, masks, lr, CFG)
        assert bits(model.params) == bits(oracle.params)
        assert bits(state.m) == bits(oracle_state.m) and bits(state.v) == bits(oracle_state.v)


@settings(max_examples=60, deadline=None)
@given(setup=setups)
def test_state_size_equals_trainable_count(setup):
    _, model, masks = random_setup(*setup)
    state = init_adam_state(model, masks)
    assert masks.size == trainable_count(masks)
    for moments in (state.m, state.v):
        assert moments.shape == (masks.size,)
    assert state.nbytes == 16 * masks.size


@settings(max_examples=60, deadline=None)
@given(setup=setups, norm=st.sampled_from(["l1", "l2"]), lam=st.floats(1e-3, 10.0),
       last_l=st.integers(0, 2), embedding=st.booleans(), head=st.booleans())
def test_sliced_penalty_matches_dense_on_trainable_entries(setup, norm, lam, last_l,
                                                           embedding, head):
    rng, pre, masks = random_setup(*setup)
    hidden = layer_roles(len(pre.layers)).count("hidden")
    regular = RegularSet(min(last_l, hidden), include_embedding=embedding, include_head=head)
    cfg = RegConfig(lam=lam, norm=norm, regular=regular)
    # the model moves only on trainable entries, as it does in training
    model = copy_model(pre)
    for layer, mask in zip(model.layers, masks.layers):
        wi, bi = mask.trainable
        layer.weight[wi] += rng.normal(size=layer.weight[wi].shape)
        layer.bias[bi] += rng.normal(size=layer.bias[bi].shape)

    grad = np.zeros(masks.size)
    loss = reg_penalty(model, resolve_penalty(pre.layers, cfg, masks), grad)
    penalized = set(resolve_regular_layers(len(pre.layers), regular))
    dense_loss = 0.0
    for i, (layer, first, mask, (g_w, g_b)) in enumerate(zip(model.layers, pre.layers,
                                                             masks.layers,
                                                             layer_grads(masks, grad))):
        if i not in penalized:
            assert not g_w.any() and not g_b.any()
            continue
        dw, db = layer.weight - first.weight, layer.bias - first.bias
        if norm == "l2":
            dense_w, dense_b = 2.0 * lam * dw, 2.0 * lam * db
            dense_loss += lam * (float(np.sum(dw * dw)) + float(np.sum(db * db)))
        else:
            dense_w, dense_b = lam * np.sign(dw), lam * np.sign(db)
            dense_loss += lam * (float(np.sum(np.abs(dw))) + float(np.sum(np.abs(db))))
        wi, bi = mask.trainable
        assert bits(g_w) == bits(dense_w[wi])
        assert bits(g_b) == bits(dense_b[bi])
    assert abs(loss - dense_loss) <= 1e-14 * abs(dense_loss)


@settings(max_examples=60, deadline=None)
@given(setup=setups, norm=st.sampled_from(["l1", "l2"]), lam=st.floats(1e-3, 10.0),
       last_l=st.integers(0, 2), batch=st.integers(1, 8))
def test_combined_vector_is_the_ce_vector_plus_the_full_anchor_penalty(setup, norm, lam,
                                                                       last_l, batch):
    rng, pre, masks = random_setup(*setup)
    hidden = layer_roles(len(pre.layers)).count("hidden")
    cfg = RegConfig(lam=lam, norm=norm, regular=RegularSet(min(last_l, hidden)))
    model = copy_model(pre)
    for layer, mask in zip(model.layers, masks.layers):
        wi, bi = mask.trainable
        layer.weight[wi] += rng.normal(size=layer.weight[wi].shape)
        layer.bias[bi] += rng.normal(size=layer.bias[bi].shape)
    x = rng.normal(size=(batch, model.layers[0].in_dim))
    y = rng.integers(0, model.num_classes, size=batch)

    total, ce, got = combined_grad(model, masks, resolve_penalty(pre.layers, cfg, masks), x, y)
    logits, _, cache = forward(model, x)
    want_ce, d_logits = cross_entropy(logits, y)
    want = backward(model, cache, masks, d_logits=d_logits)
    reg_loss = oracle_reg_penalty(model, pre.layers, cfg, masks, want)
    assert got.shape == (masks.size,)
    assert bits(got) == bits(want)
    assert ce == want_ce and total == want_ce + reg_loss


@st.composite
def penalty_cases(draw):
    """A model, its anchor, masks of any kind and a penalty of either norm over any
    regular set, every trainable entry moved off the anchor, and a gradient vector for
    the penalty to add into, as if backward had written it."""
    # widths up to 20, so a part holds enough terms that another summation order rounds
    # differently
    dims = draw(st.lists(st.integers(1, 20), min_size=2, max_size=5))
    variants = draw(st.lists(st.sampled_from(VARIANTS), min_size=len(dims) - 1,
                             max_size=len(dims) - 1))
    rng, pre, masks = random_setup(draw(st.integers(0, 2 ** 32 - 1)), dims, variants)
    masks = masks_of_kind(pre, masks, draw(MASK_KINDS))
    hidden = layer_roles(len(pre.layers)).count("hidden")
    regular = RegularSet(min(draw(st.integers(0, 2)), hidden), draw(st.booleans()),
                         draw(st.booleans()))
    cfg = RegConfig(draw(st.floats(1e-3, 10.0)), draw(st.sampled_from(["l1", "l2"])), regular)
    model = copy_model(pre)
    for seg in masks.segments:  # every trainable entry moves off the anchor
        getattr(model.layers[seg.layer], seg.param)[seg.index] += rng.normal(size=seg.shape)
    return model, pre, masks, cfg, rng.normal(size=masks.size)


@settings(max_examples=150, deadline=None)
@given(case=penalty_cases())
def test_one_gather_penalty_matches_the_per_segment_body_bitwise(case):
    model, pre, masks, cfg, grad = case
    want = grad.copy()
    penalty = resolve_penalty(pre.layers, cfg, masks)
    assert penalty.index is masks.positions
    loss = reg_penalty(model, penalty, grad)
    assert bits(np.float64(loss)) == bits(np.float64(
        oracle_reg_penalty(model, pre.layers, cfg, masks, want)))
    assert bits(grad) == bits(want)


@settings(max_examples=150, deadline=None)
@given(case=penalty_cases())
def test_the_penalty_loss_is_within_rounding_of_its_exact_sum(case):
    # independent of the order the terms are summed in: given the oracle's terms, each
    # partial sum and the product with lambda round once, by at most 2**-53 relative
    model, pre, masks, cfg, grad = case
    loss = reg_penalty(model, resolve_penalty(pre.layers, cfg, masks), grad)
    parts = oracle_penalty_terms(model, pre.layers, cfg, masks, grad.copy())
    terms = np.concatenate([np.empty(0), *parts])
    exact = cfg.lam * math.fsum(terms)
    assert abs(loss - exact) <= len(terms) * 2.0 ** -52 * exact


# A row or col slice is its own, narrower product, and the lowest layer's
# deltas come from a narrower propagation, so they may differ from the dense
# oracle in the last bits: by at most SLICE_TOL times the largest entry of the
# layer's dense gradient (plus one).
SLICE_TOL = 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.lists(st.integers(1, 6), min_size=3, max_size=5),
       batch=st.integers(1, 8), data=st.data(),
       head_only=st.booleans(), path=st.sampled_from(["logits", "features"]))
def test_sliced_backward_matches_the_dense_oracle(seed, dims, batch, data, head_only, path):
    variants = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=len(dims) - 1,
                                  max_size=len(dims) - 1))
    rng, model, masks = random_setup(seed, dims, variants)
    if head_only:
        masks = GradientMaskSet.head_only(model)
    _, features, cache = forward(model, rng.normal(size=(batch, dims[0])))
    upstream = rng.normal(size=(batch, dims[-1] if path == "logits" else features.shape[1]))
    want = dense_backward(model, cache, **{f"d_{path}": upstream})
    trains = [indices_to_dense(m).any() for m in masks.layers]
    lowest = trains.index(True) if any(trains) else len(trains)
    # no backprop below the lowest trainable layer: it never reads their activations
    cache.inputs[:lowest] = [None] * lowest
    got = backward(model, cache, masks, **{f"d_{path}": upstream})
    assert got.shape == (masks.size,)

    # each layer's segments hold its dense gradients at the trainable index
    for i, ((g_w, g_b), (w_w, w_b), mask) in enumerate(zip(layer_grads(masks, got), want,
                                                           masks.layers)):
        wi, bi = mask.trainable
        assert g_w.shape == w_w[wi].shape and g_b.shape == w_b[bi].shape
        if i < lowest:
            assert g_w.size == 0 and g_b.size == 0
        elif mask.variant in ("full", "sparse"):
            assert bits(g_w) == bits(w_w[wi])
            assert bits(g_b) == bits(w_b[bi])
        else:
            tol = SLICE_TOL * (1.0 + max(np.abs(w_w).max(), np.abs(w_b).max()))
            assert np.all(np.abs(g_w - w_w[wi]) <= tol)
            assert np.all(np.abs(g_b - w_b[bi]) <= tol)


@settings(max_examples=100, deadline=None)
@given(setup=setups, kind=MASK_KINDS, batch=st.integers(1, 8),
       path=st.sampled_from(["logits", "features"]))
def test_backward_into_a_reused_dirty_buffer_is_a_fresh_backward_bitwise(setup, kind, batch, path):
    # a training run hands backward the vector Adam left its update in
    rng, model, masks = random_setup(*setup)
    masks = masks_of_kind(model, masks, kind)
    x = rng.normal(size=(batch, model.dims[0]))
    logits, features, cache = forward(model, x)
    upstream = {f"d_{path}": rng.normal(size=(logits if path == "logits" else features).shape)}
    # backward consumes d_features and the cache: the fresh backward reads a copy of the
    # one and a cache of its own
    fresh = backward(model, cache, masks, **{k: v.copy() for k, v in upstream.items()})
    buffer = np.full(masks.size, np.nan)
    got = backward(model, forward(model, x)[2], masks, out=buffer, **upstream)
    assert got is buffer
    assert bits(got) == bits(fresh)


@settings(max_examples=100, deadline=None)
@given(setup=setups, kind=MASK_KINDS, batch=st.integers(1, 8))
def test_backward_reads_a_cached_bool_gate_as_the_activation_it_gates_bitwise(setup, kind,
                                                                               batch):
    # scoring caches the head input's ReLU gate, a bool array, in place of the head input
    rng, model, masks = random_setup(*setup)
    masks = masks_of_kind(model, masks, kind)
    x = rng.normal(size=(batch, model.dims[0]))
    _, features, cache = forward(model, x)
    d_features = rng.normal(size=features.shape)
    want = backward(model, cache, masks, d_features=d_features.copy())
    gated = forward(model, x)[2]
    gated.inputs[-1] = gated.inputs[-1] > 0.0
    got = backward(model, gated, masks, d_features=d_features)
    assert bits(got) == bits(want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 64), classes=st.integers(1, 12),
       scale=st.floats(1e-3, 1e3))
def test_cross_entropy_matches_its_old_body_bitwise(seed, batch, classes, scale):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(batch, classes)) * scale
    labels = rng.integers(0, classes, size=batch)
    loss, d_logits = cross_entropy(logits, labels)
    want_loss, want_d = oracle_cross_entropy(logits, labels)
    assert bits(np.float64(loss)) == bits(np.float64(want_loss))
    assert bits(d_logits) == bits(want_d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.lists(st.integers(1, 6), min_size=3, max_size=5),
       batch=st.integers(1, 8))
def test_all_full_backward_is_the_dense_oracle_bitwise(seed, dims, batch):
    rng, model, masks = random_setup(seed, dims, ["full"] * (len(dims) - 1))
    x = rng.normal(size=(batch, dims[0]))
    logits, features, _ = forward(model, x)
    for upstream in ({"d_logits": rng.normal(size=logits.shape)},
                     {"d_features": rng.normal(size=features.shape)}):
        cache = forward(model, x)[2]  # backward consumes its cache
        want = dense_backward(model, cache, **upstream)  # before backward consumes d_features
        got = backward(model, cache, masks, **upstream)
        assert bits(got) == bits(gathered(masks, want))


LABELINGS = ("random", "one_class", "distinct")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(2, 64), dim=st.integers(1, 40),
       scale=st.floats(1e-3, 1e3), tau=st.floats(1e-3, 1e3),
       labeling=st.sampled_from(LABELINGS),
       dims=st.lists(st.integers(1, 40), min_size=2, max_size=5))
def test_in_place_scoring_matches_the_fresh_array_oracles_bitwise(seed, batch, dim, scale, tau,
                                                                  labeling, dims):
    rng = np.random.default_rng(seed)
    features = scale * rng.normal(size=(batch, dim))
    # random labels over up to batch classes leave anchors with no positive
    labels = {"random": rng.integers(0, rng.integers(1, batch + 1), size=batch),
              "one_class": np.zeros(batch, dtype=np.int64),
              "distinct": rng.permutation(batch)}[labeling]
    loss, d_features = scl_loss(features, labels, tau)
    with np.errstate(over="ignore"):  # the oracle exponentiates the self-similarity too
        want_loss, want_d = oracle_scl_loss(features, labels, tau)
    assert loss == want_loss
    assert d_features.tobytes() == want_d.tobytes()

    model = random_setup(seed, dims, ["full"] * (len(dims) - 1))[1]
    x = rng.normal(size=(batch, dims[0]))
    logits, _, cache = forward(model, x)
    want_logits, want_inputs = oracle_forward(model, x)
    assert logits.tobytes() == want_logits.tobytes()
    assert len(cache.inputs) == len(want_inputs)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cache.inputs, want_inputs))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(2, 40), dim=st.integers(1, 8),
       classes=st.integers(1, 40), log_tau=st.floats(-3.0, 3.0))
# the n x n buffer smaller than one Jacobian block (min(64 // dim, batch) rows of dim):
# its block temporaries then take a fresh block
@example(seed=0, batch=2, dim=8, classes=1, log_tau=0.0)
@example(seed=1, batch=5, dim=7, classes=2, log_tau=-1.0)
def test_row_blocked_scoring_is_the_whole_matrix_oracle_bitwise(seed, batch, dim, classes,
                                                                log_tau):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(batch, dim))
    labels = rng.integers(0, classes, size=batch)
    labels[rng.integers(batch)] = classes  # a class of one row: an anchor with no positive
    tau = 10.0 ** log_tau
    want_loss, want_d = oracle_whole_matrix_scl_loss(features, labels, tau)
    before = bits(features)
    consumed = features.copy()
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 64 // batch rows: one block for 2 rows, 1-row blocks from 33 rows on
        mp.setattr("masktune.model._CHUNK", 64)
        results = [scl_loss(features, labels, tau),
                   scl_loss(features, labels, tau, out=np.full((batch, dim), np.nan)),
                   # consuming: z, then the gradient, in the features' own buffer
                   scl_loss(consumed, labels, tau, out=consumed)]
    assert results[2][1] is consumed
    assert bits(features) == before  # an out other than the features leaves them as they are
    for loss, d_features in results:
        assert bits(np.float64(loss)) == bits(np.float64(want_loss))
        assert bits(d_features) == bits(want_d)


# criterion 3's bound on the relative error against central differences
FD_TOL = 1e-4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(2, 8), dim=st.integers(2, 6),
       classes=st.integers(1, 4), tau=st.floats(0.2, 2.0))
def test_scl_feature_gradient_matches_finite_differences(seed, batch, dim, classes, tau):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(batch, dim))
    # rows of norm 0.5 to 2 keep the normalization well conditioned
    features *= rng.uniform(0.5, 2.0, size=(batch, 1)) / np.linalg.norm(features, axis=1,
                                                                         keepdims=True)
    labels = rng.integers(0, classes, size=batch)
    _, d_features = scl_loss(features, labels, tau)
    fd = finite_diff_grad(lambda f: scl_loss(f, labels, tau)[0], features, 1e-5)
    assert grad_rel_err(d_features, fd) < FD_TOL


@settings(max_examples=60, deadline=None)
@given(setup=setups, norm=st.sampled_from(["l1", "l2"]), lam=st.floats(1e-2, 10.0),
       last_l=st.integers(0, 2))
def test_penalty_slice_gradient_matches_finite_differences(setup, norm, lam, last_l):
    rng, pre, masks = random_setup(*setup)
    hidden = layer_roles(len(pre.layers)).count("hidden")
    cfg = RegConfig(lam=lam, norm=norm, regular=RegularSet(min(last_l, hidden)))
    penalty = resolve_penalty(pre.layers, cfg, masks)
    # trainable entries move at least 0.1 away, far from l1's kink at the anchor
    model = copy_model(pre)
    for layer, mask in zip(model.layers, masks.layers):
        for param, index in zip((layer.weight, layer.bias), mask.trainable):
            step = rng.uniform(0.1, 1.0, size=param[index].shape)
            param[index] += np.where(rng.uniform(size=step.shape) < 0.5, -step, step)
    grad = np.zeros(masks.size)
    reg_penalty(model, penalty, grad)
    regular = resolve_regular_layers(len(pre.layers), cfg.regular)
    for seg in (s for i in regular for s in masks.segments[2 * i:2 * i + 2]):
        def loss_of(values, seg=seg):
            probe = copy_model(model)
            getattr(probe.layers[seg.layer], seg.param)[seg.index] = values
            return reg_penalty(probe, penalty, np.zeros(masks.size))
        fd = finite_diff_grad(loss_of, getattr(model.layers[seg.layer], seg.param)[seg.index],
                              1e-6)
        assert grad_rel_err(seg.view(grad), fd) < FD_TOL


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    """A model of 1-3 layers with any finite values."""
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    layers = [Layer(draw(hnp.arrays(np.float64, (dims[i + 1], dims[i]), elements=finite)),
                    draw(hnp.arrays(np.float64, dims[i + 1], elements=finite)))
              for i in range(len(dims) - 1)]
    return ModelParams.from_layers(layers)


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_checkpoint_round_trips_value_exact_into_writeable_arrays(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
    assert loaded.dims == model.dims
    assert loaded.params.flags.writeable and loaded.params.flags.owndata
    for got, want in zip(loaded.layers, model.layers):
        for a, b in ((got.weight, want.weight), (got.bias, want.bias)):
            assert a.dtype == np.float64 and a.shape == b.shape
            assert bits(a) == bits(b)
            assert a.flags.writeable and a.base is loaded.params


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_saving_twice_gives_identical_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save_checkpoint(model, first)
        save_checkpoint(copy_model(model), second)
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_one_write_gives_the_per_layer_writers_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "a", Path(tmp) / "b"
        save_checkpoint(model, got)
        oracle_save_checkpoint(model, want)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=20, deadline=None)
@given(model=models())
def test_every_truncation_raises_input_error(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(InputError):
                load_checkpoint(path)


# JSON documents for the readers: scalars and strings, and lists and objects of them, the
# objects often keyed by the names the config and the checkpoint header use
_JSON_KEYS = st.sampled_from(["seed", "task", "model", "pretrain", "finetune", "shift",
                              "regular", "dims", "roles"]) | st.text(max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=24)


def nested_document(key, extra: int, closed: bool) -> tuple[object, str]:
    """A document nested ``extra`` levels deeper than the recursion limit, in lists (``key``
    None) or in objects under ``key``, and its JSON text, whole or cut off before its
    first closer. The limit is read when it is built: hypothesis raises it while it runs."""
    depth = sys.getrecursionlimit() + extra
    doc, opener, closer = 0, "[", "]"
    if key is not None:
        opener, closer = "{" + json.dumps(key) + ": ", "}"
    for _ in range(depth):
        doc = [doc] if key is None else {key: doc}
    return doc, opener * depth + ("0" + closer * depth if closed else "")


@settings(max_examples=150, deadline=None)
@given(doc=json_values, deep=st.none() | st.tuples(st.none() | _JSON_KEYS,
                                                    st.integers(1, 3000), st.booleans()))
def test_the_readers_return_or_refuse_any_json_document(doc, deep):
    # every reader of a config or a checkpoint header returns or raises ConfigError or
    # InputError, which the CLI reports as exit 2: never a RecursionError or a TypeError
    doc, text = (doc, json.dumps(doc)) if deep is None else nested_document(*deep)
    with tempfile.TemporaryDirectory() as tmp:
        config, checkpoint = Path(tmp) / "run.json", Path(tmp) / "model.ckpt"
        config.write_text(text)
        checkpoint.write_bytes(CHECKPOINT_MAGIC + text.encode() + b"\n" + bytes(8 * 6))
        for read in (lambda: parse_run_config(doc), lambda: load_run_config(config),
                     lambda: load_checkpoint(checkpoint)):
            try:
                read()
            except (ConfigError, InputError):
                pass


def csv_module_reader(path):
    """Oracle: the csv-module reader load_dataset_csv replaced."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    y = np.array([int(r[0]) for r in body], dtype=np.int64)
    x = np.array([[float(v) for v in r[1:]] for r in body], dtype=np.float64)
    return Dataset(x, y, int(y.max()) + 1)


@st.composite
def datasets(draw):
    n, dim, classes = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    x = draw(hnp.arrays(np.float64, (n, dim), elements=finite))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    return Dataset(x, y, classes)


@settings(max_examples=60, deadline=None)
@given(data=datasets())
def test_csv_reader_matches_the_csv_module_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset_csv(data, path)
        got = load_dataset_csv(path)
        want = csv_module_reader(path)
    assert got.x.shape == want.x.shape and got.x.dtype == want.x.dtype
    assert bits(got.x) == bits(want.x)
    assert got.y.dtype == want.y.dtype and np.array_equal(got.y, want.y)
    assert got.num_classes == want.num_classes
    assert got.x.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), dim=st.integers(0, 6), data=st.data())
def test_csv_writer_writes_the_csv_module_bytes(n, dim, data):
    # the extremes of repr: signed zero, the least subnormal, huge and exponent-form values
    values = st.one_of(st.sampled_from([-0.0, 5e-324, 1e300, -1e300, 1e-05]), st.floats())
    x = data.draw(hnp.arrays(np.float64, (n, dim), elements=values))
    y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 11)))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        save_dataset_csv(Dataset(x, y, 12), got)
        oracle_save_dataset_csv(Dataset(x, y, 12), want)
        assert got.read_bytes() == want.read_bytes()


def indices_to_dense(mask):
    """0/1 matrix of a mask, built from its indices rather than its trainable index."""
    m = np.zeros(mask.shape)
    if mask.variant == "full":
        m[:, :] = 1.0
    elif mask.variant == "row":
        for i in mask.index:
            m[i, :] = 1.0
    elif mask.variant == "col":
        for j in mask.index:
            m[:, j] = 1.0
    else:
        for i, j in zip(*np.nonzero(mask.index)):
            m[i, j] = 1.0
    return m


def dense_objective(h, m):
    return frobenius_sq(h - h * m)


def dense_retained(h, m):
    kept = h * m
    return float(np.sum(kept * kept))


@st.composite
def masked_gradients(draw):
    """A gradient matrix of any finite values and a random mask of its shape."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    h = draw(hnp.arrays(np.float64, (rows, cols), elements=finite))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return h, random_mask(rng, draw(st.sampled_from(VARIANTS)), (rows, cols))


@settings(max_examples=100, deadline=None)
@given(case=masked_gradients())
def test_objective_and_energy_match_the_dense_formulas_bitwise(case):
    h, mask = case
    m = indices_to_dense(mask)
    with np.errstate(over="ignore"):  # squares of huge entries are inf on both sides
        assert bits(np.float64(mask_objective(h, mask))) == bits(np.float64(dense_objective(h, m)))
        assert bits(np.float64(retained_energy(h, mask))) == \
            bits(np.float64(dense_retained(h, m)))


@settings(max_examples=60, deadline=None)
@given(h=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                   elements=st.floats(-1e3, 1e3)),
       data=st.data())
def test_top_k_rows_and_cols_reach_the_brute_force_objective(h, data):
    tol = 1e-12 * max(frobenius_sq(h), 1e-300)
    for variant, scored in (("row", h), ("col", h.T)):
        k = data.draw(st.integers(1, scored.shape[0]))
        best = LayerMask(variant, h.shape, brute_force_best_rows(scored, k))
        assert abs(mask_objective(h, build_mask(h, k, variant)) - mask_objective(h, best)) <= tol


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       variant=st.sampled_from(("row", "col", "sparse")), data=st.data())
def test_top_k_by_partition_picks_the_stable_argsorts_entries_on_tied_scores(
        rows, cols, seed, variant, data):
    # integer scores from a few values tie heavily, and -0.0 ties with 0.0
    rng = np.random.default_rng(seed)
    h = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    h[rng.random(size=h.shape) < 0.3] = -0.0
    k = data.draw(st.integers(1, cols), label="k")
    assert topk_indices(h, k).tolist() == oracle_topk_rows(h, k).tolist()
    k = data.draw(st.integers(1, rows if variant == "row" else cols), label="mask k")
    mask = build_mask(h, k, variant)
    if variant == "sparse":
        want = np.zeros(h.shape, dtype=bool)
        np.put_along_axis(want, oracle_topk_rows(np.abs(h), k), True, axis=1)
        assert np.array_equal(mask.index, want)
    else:
        scores = np.sum(h * h, axis=1 if variant == "row" else 0)
        assert mask.index.tolist() == oracle_topk_rows(scores, k).tolist()


@st.composite
def scored_gradients(draw):
    """A gradient matrix of 1-40 rows and columns, either random or integer-valued
    (heavily tied), a selection variant and a k from 1 to the width it selects over."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        h = rng.normal(size=(rows, cols))
    else:
        h = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    variant = draw(st.sampled_from(("row", "col", "sparse")))
    k = draw(st.integers(1, rows if variant == "row" else cols))
    return h, k, variant


@settings(max_examples=150, deadline=None)
@given(case=scored_gradients())
def test_build_mask_selects_the_per_row_oracles_entries(case):
    h, k, variant = case
    want = oracle_build_mask(h, k, variant)
    mask = build_mask(h, k, variant)
    dense = np.zeros(h.shape)
    if variant == "row":
        dense[want, :] = 1.0
    elif variant == "col":
        dense[:, want] = 1.0
    else:
        for i, cols in enumerate(want):
            dense[i, cols] = 1.0
    assert np.array_equal(indices_to_dense(mask), dense)
    [layer] = masks_to_doc(GradientMaskSet((mask,)))["layers"]
    assert layer["indices"] == want


def assert_same_index(a, b):
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_index(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       layers=st.lists(st.tuples(st.sampled_from(VARIANTS), st.integers(1, 6), st.integers(1, 6)),
                       min_size=1, max_size=4))
def test_masks_round_trip_through_json(seed, layers):
    rng = np.random.default_rng(seed)
    masks = GradientMaskSet(tuple(random_mask(rng, v, (rows, cols)) for v, rows, cols in layers))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "masks.json"
        save_masks(masks, path)
        loaded = read_masks(path)
    assert len(loaded.layers) == len(masks.layers)
    for got, want in zip(loaded.layers, masks.layers):
        assert (got.variant, got.shape, got.storage_bits()) == \
            (want.variant, want.shape, want.storage_bits())
        assert_same_index(got.trainable, want.trainable)
    assert loaded.total_storage_bits() == masks.total_storage_bits()


@st.composite
def row_path_setups(draw):
    """A model of 3 to 5 layers with random weights and biases, its anchor, row masks
    with k from 0 (the linear probe) up to the full width below a full head, a dataset
    and a batch of its rows, drawn with repeats."""
    dims = draw(st.lists(st.integers(1, 9), min_size=4, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pre = ModelParams.from_layers([Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
                                   for n_in, n_out in zip(dims, dims[1:])])
    masks = [LayerMask("row", l.weight.shape, sorted(draw(st.sets(
        st.integers(0, l.out_dim - 1), max_size=l.out_dim)))) for l in pre.layers[:-1]]
    masks = GradientMaskSet((*masks, LayerMask("full", pre.layers[-1].weight.shape)))
    model = copy_model(pre)
    for seg in masks.segments:  # move every trainable entry off the anchor
        getattr(model.layers[seg.layer], seg.param)[seg.index] += rng.normal(size=seg.shape)
    samples = draw(st.integers(1, 40))
    x = rng.normal(size=(samples, dims[0]))
    y = rng.integers(0, dims[-1], size=samples)
    batch = np.array(draw(st.lists(st.integers(0, samples - 1), min_size=1, max_size=40)))
    return rng, pre, model, masks, x, y, batch


@settings(max_examples=100, deadline=None)
@given(setup=row_path_setups())
def test_row_path_forward_and_backward_match_the_dense_path(setup):
    rng, pre, model, masks, x, _, batch = setup
    rows = row_params(pre, model, masks)
    anchor = row_anchor(pre, x)
    logits, features, cache = forward(rows, x[batch], anchor.take(batch))
    dense_logits, dense_features, dense_cache = forward(model, x[batch])
    assert grad_rel_err(logits, dense_logits) <= 1e-12
    assert grad_rel_err(features, dense_features) <= 1e-12
    d_logits = rng.normal(size=logits.shape)
    grad = backward(rows, cache, replace(masks, rows_held=2), d_logits=d_logits)
    assert grad_rel_err(grad, backward(model, dense_cache, masks, d_logits=d_logits)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(setup=row_path_setups(), steps=st.integers(1, 4))
def test_row_path_training_keeps_frozen_entries_bitwise(setup, steps):
    rng, pre, model, masks, x, y, batch = setup
    rows, held = row_params(pre, model, masks), replace(masks, rows_held=2)
    anchor = row_anchor(pre, x)
    penalty = resolve_penalty([l.copy() for l in row_params(pre, pre, masks).layers],
                              RegConfig(lam=0.1, regular=RegularSet(1)), held)
    state = init_adam_state(rows, held)
    before, pre_bits = copy_model(model), bits(pre.params)
    for _ in range(steps):
        _, _, grad = combined_grad(rows, held, penalty, x[batch], y[batch], anchor.take(batch))
        masked_adam_step(rows, state, grad, held, 0.05, CFG)
    assert bits(pre.params) == pre_bits  # the frozen entries of layers 0 and 1 are read there
    for mask, got, want in zip(masks.layers, rows.to_model().layers, before.layers):
        frozen = mask.to_dense() == 0.0
        assert bits(got.weight[frozen]) == bits(want.weight[frozen])
        assert bits(got.bias[bias_mask(mask) == 0.0]) == bits(want.bias[bias_mask(mask) == 0.0])


def test_row_path_evaluation_reads_the_anchor_chunk_by_chunk():
    # 4,000 wide, so each chunk holds 8 of the 100 rows and the last one 4
    rng = np.random.default_rng(5)
    pre = ModelParams.from_layers([Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
                                   for n_in, n_out in [(6, 4000), (4000, 7), (7, 3)]])
    masks = GradientMaskSet((LayerMask("row", (4000, 6), (1, 2999)),
                             LayerMask("row", (7, 4000), (0, 5)), LayerMask("full", (3, 7))))
    data = Dataset(rng.normal(size=(100, 6)), rng.integers(0, 3, size=100), 3)
    anchor = row_anchor(pre, data.x)
    chunks = list(row_chunks(100, 4000))
    assert [(c.start, c.stop) for c in chunks[-2:]] == [(88, 96), (96, 100)]
    # z1 and the layer-0 activation: the dense forward's of the whole set
    z1, a0, _ = forward(ModelParams.from_layers(pre.layers[:2]), data.x)
    assert bits(anchor.z1) == bits(z1) and bits(anchor.a0_whole) == bits(a0)
    assert evaluate(row_params(pre, pre, masks), data, anchor) == evaluate(pre, data)


@st.composite
def scoring_setups(draw):
    """A model of 3 to 5 layers whose positive biases leave no feature row zero, a task
    for it, and a row finetune config with k up to the narrowest layer below the head
    and 1 to 4 subsets of at least 2 rows."""
    dims = draw(st.lists(st.integers(2, 9), min_size=4, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pre = ModelParams.from_layers([Layer(0.1 * rng.normal(size=(n_out, n_in)),
                                         rng.uniform(2.0, 3.0, size=n_out))
                                   for n_in, n_out in zip(dims, dims[1:])])
    per_class = draw(st.integers(2, 12))
    task = gen_task(dims[0], dims[-1], per_class, 0.3, ShiftConfig(3, 0.5),
                    seed=draw(st.integers(0, 1000)))
    cfg = FineTuneConfig(k=draw(st.integers(1, min(dims[1:-1]))), variant="row",
                         reg=RegConfig(lam=0.01), tau=0.5,
                         subsets_n=draw(st.integers(1, min(4, dims[-1] * per_class // 2))),
                         optim=CFG, batch_size=8, seed=draw(st.integers(0, 1000)))
    return pre, task, cfg


@settings(max_examples=60, deadline=None)
@given(setup=scoring_setups())
def test_scoring_fills_the_training_anchor_and_chooses_as_the_dense_path(setup):
    # any layer 1 takes the row path here: the anchor selection's forward fills is
    # row_anchor's up to rounding, and the chosen subset and masks are the dense path's
    pre, task, cfg = setup
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", 0)
        index, masks, anchor = finetune_masks(pre, task, cfg)
        mp.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", np.inf)
        dense_index, dense_masks, no_anchor = finetune_masks(pre, task, cfg)
    assert (index, no_anchor) == (dense_index, None)
    for got, want in zip(masks.layers, dense_masks.layers):
        assert got.variant == want.variant and np.array_equal(got.index, want.index)
    want = row_anchor(pre, task.target_train.x)
    assert grad_rel_err(anchor.z1, want.z1) <= 1e-12
    # layer 0's activation is row_anchor's own product: the dense forward's, bit for bit
    _, a0, _ = forward(pre.layer_range(0, 2), task.target_train.x)
    assert bits(anchor.a0_whole) == bits(want.a0_whole) == bits(a0)


def assert_the_row_path_run_is_the_dense_run(pre, task, cfg, run):
    """Run ``run`` on the row path (any layer 1 takes it with the bound at 0) and on the
    dense path (none does at infinity): ``pre`` is not written, frozen entries stay
    bitwise at ``pre``, the test accuracies are equal and the losses and distances agree
    within 1e-12 relative. Returns the row run's anchors of the test set."""
    before, tests = bits(pre.params), []
    row_anchor = harness.row_anchor

    def recorded(model, x, z1=None):
        anchor = row_anchor(model, x, z1)
        if x is task.target_test.x:
            tests.append(anchor)
        return anchor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "row_anchor", recorded)
        mp.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", 0)
        model, row = getattr(harness, run)(pre, task, cfg)
        mp.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", np.inf)
        _, dense = getattr(harness, run)(pre, task, cfg)
    assert bits(pre.params) == before and not np.shares_memory(model.params, pre.params)
    for mask, got, want in zip(row.masks.layers[:-1], model.layers, pre.layers):
        frozen, frozen_bias = mask.to_dense() == 0.0, bias_mask(mask) == 0.0
        assert bits(got.weight[frozen]) == bits(want.weight[frozen])
        assert bits(got.bias[frozen_bias]) == bits(want.bias[frozen_bias])
    assert [e.test_accuracy for e in row.epochs] == [e.test_accuracy for e in dense.epochs]
    for a, b in zip(row.epochs, dense.epochs):
        assert a.loss_r == pytest.approx(b.loss_r, rel=1e-12)
        assert a.ce_loss == pytest.approx(b.ce_loss, rel=1e-12)
    assert row.weight_distances == pytest.approx(dense.weight_distances, rel=1e-12)
    return tests


@settings(max_examples=40, deadline=None)
@given(setup=scoring_setups(), run=st.sampled_from(("finetune", "linear_probe")))
def test_a_row_path_run_is_the_dense_run(setup, run):
    pre, task, _ = setup
    [anchor] = assert_the_row_path_run_is_the_dense_run(*setup, run)
    # the test set's layer-0 activation: the dense forward's
    _, a0, _ = forward(pre.layer_range(0, 2), task.target_test.x)
    assert bits(anchor.a0_whole) == bits(a0)


@settings(max_examples=30, deadline=None)
@given(setup=scoring_setups(), run=st.sampled_from(("finetune", "linear_probe")),
       data=st.data())
def test_a_row_path_run_with_a_one_row_last_batch_is_the_dense_run(setup, run, data):
    # the one case whose bits move: the dense run forms a one-row batch's layer-0
    # activation as a matrix-vector product, whose sums round apart from the row of
    # row_anchor's whole-set product that the row run gathers
    pre, task, cfg = setup
    n = len(task.target_train)
    batch_size = data.draw(st.sampled_from([b for b in range(2, n) if n % b == 1]))
    assert_the_row_path_run_is_the_dense_run(pre, task, replace(cfg, batch_size=batch_size),
                                             run)


def oracle_train(model, masks, anchor, reg, train, optim, batch_size, shuffle_rng, rows=None):
    """Test oracle: ``harness._train`` as a loop of the step oracles, each step's views of
    the gradient vector, the moments and the parameters sliced afresh: ``oracle_forward``
    (from ``rows``, the ``RowAnchor`` of ``train``, on the row path),
    ``oracle_cross_entropy``, ``oracle_backward``, ``oracle_reg_penalty`` towards the
    layers ``anchor`` and ``oracle_masked_adam_step``. Yields what ``_train`` yields."""
    state = AdamState(np.zeros(masks.size), np.zeros(masks.size))
    for epoch in range(optim.total_epochs):
        lr = cosine_warmup_lr(epoch, optim)
        order = shuffle_rng.permutation(len(train))
        loss_sum = ce_sum = 0.0
        for start in range(0, len(train), batch_size):
            idx = order[start:start + batch_size]
            logits, inputs = oracle_forward(model, train.x[idx],
                                            None if rows is None else rows.take(idx))
            ce, d_logits = oracle_cross_entropy(logits, train.y[idx])
            grad = oracle_backward(model, ForwardCache(model, inputs), masks, d_logits=d_logits)
            loss_r = ce + oracle_reg_penalty(model, anchor, reg, masks, grad)
            oracle_masked_adam_step(model, state, grad, masks, lr, optim)
            loss_sum += loss_r * len(idx)
            ce_sum += ce * len(idx)
        yield epoch, lr, loss_sum / len(train), ce_sum / len(train), state


def drawn_mask(draw, rng, variant, shape):
    """A mask of ``variant`` on ``shape``: up to 4 rows or columns (none included), or
    a random boolean matrix for sparse."""
    if variant == "full":
        return LayerMask("full", shape)
    if variant == "sparse":
        return sparse_from_bits(rng.uniform(size=shape) < draw(st.floats(0.0, 1.0)))
    n = shape[0] if variant == "row" else shape[1]
    picked = rng.choice(n, size=draw(st.integers(0, min(n, 4))), replace=False)
    return LayerMask(variant, shape, sorted(int(i) for i in picked))


@st.composite
def training_runs(draw):
    """A ``_train`` run and its oracle's: random dims or ``ROW_PATH_DIMS``; row, col,
    sparse, full or head-only masks below a full head, on the row path (row masks on
    three or more layers) or the dense one; a penalty of any norm, lambda 0 or above
    and any regular set, towards the starting weights with the trained entries moved
    off them; and a training set whose last batch is full, short or one row long."""
    dims = draw(st.one_of(st.just(ROW_PATH_DIMS),
                          st.lists(st.integers(1, 6), min_size=2, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pre = ModelParams.from_layers([Layer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
                                   for n_in, n_out in zip(dims, dims[1:])])
    variant = draw(st.sampled_from(["row", "col", "sparse", "full", "head-only"]))
    if variant == "head-only":
        masks = GradientMaskSet.head_only(pre)
    else:
        below = [drawn_mask(draw, rng, variant, l.weight.shape) for l in pre.layers[:-1]]
        masks = GradientMaskSet((*below, LayerMask("full", pre.layers[-1].weight.shape)))
    row_path = variant in ("row", "head-only") and len(dims) >= 4 and draw(st.booleans())
    batch_size, last = draw(st.integers(2, 8)), draw(st.sampled_from(["full", "short", "one"]))
    rest = {"full": 0, "one": 1, "short": draw(st.integers(2, max(2, batch_size - 1)))}[last]
    n = batch_size * draw(st.integers(1, 3)) + (rest if rest < batch_size else 0)
    train = Dataset(rng.normal(size=(n, dims[0])), rng.integers(0, dims[-1], size=n), dims[-1])
    hidden = max(0, len(dims) - 3)
    reg = RegConfig(lam=draw(st.sampled_from([0.0, 0.05, 0.3])),
                    norm=draw(st.sampled_from(["l2", "l1", "none"])),
                    regular=RegularSet(draw(st.integers(0, hidden)), draw(st.booleans()),
                                       draw(st.booleans())))
    optim = OptimConfig(base_lr=draw(st.sampled_from([0.01, 0.1])),
                        total_epochs=draw(st.integers(2, 3)), warmup_epochs=draw(st.integers(0, 1)))
    if row_path:
        rows = (masks.layers[0].index, masks.layers[1].index)
        model = reinit_head(pre, dims[-1], Rng(0), rows)
        masks, anchor = replace(masks, rows_held=2), row_anchor(pre, train.x)
    else:
        model, anchor = copy_model(pre), None
    layers = [l.copy() for l in model.layers]
    for seg in masks.segments:  # move every trained entry off the penalty's anchor
        getattr(model.layers[seg.layer], seg.param)[seg.index] += 0.1 * rng.normal(size=seg.shape)
    oracle = (RowParams(pre, *rows, model.params.copy(), model.dims) if row_path
              else copy_model(model))
    return model, oracle, masks, layers, reg, train, optim, batch_size, anchor


def float_bits(values):
    return [np.float64(v).tobytes() for v in values]


@settings(max_examples=80, deadline=None)
@given(run=training_runs(), seed=st.integers(0, 1000))
def test_a_training_run_is_the_loop_of_the_step_oracles_bitwise(run, seed):
    # a run resolves its views once; each epoch's losses, the parameters and Adam's
    # state must be the ones a loop of the oracles, which slice afresh, gives
    model, oracle, masks, layers, reg, train, optim, batch_size, anchor = run
    got = harness._train(model, masks, resolve_penalty(layers, reg, masks), train, optim,
                         batch_size, Rng(seed).child(3), anchor)
    want = oracle_train(oracle, masks, layers, reg, train, optim, batch_size,
                        Rng(seed).child(3), anchor)
    epochs = 0
    for (*stats, state), (*oracle_stats, oracle_state) in zip(got, want, strict=True):
        assert float_bits(stats) == float_bits(oracle_stats)
        assert bits(model.params) == bits(oracle.params)
        assert bits(state.m) == bits(oracle_state.m) and bits(state.v) == bits(oracle_state.v)
        assert state.t == oracle_state.t
        epochs += 1
    assert epochs == optim.total_epochs
