"""Property tests over random shapes, masks, models and datasets.

The dense masked Adam step below is the step the package used before Adam
touched only the trainable slice; it stays here as the oracle the sliced step
must match bit for bit. ``dense_backward`` is the backward pass the package
used before it computed only the trainable slices: full-shape gradients for
every layer, the oracle for ``backward``'s slices. Likewise ``csv_module_reader`` is the dataset reader
the package used before numpy's C parser, kept as the oracle for
``load_dataset_csv``, and ``dense_objective``/``dense_retained`` are the
formulas ``mask_objective``/``retained_energy`` used before they read the
mask's trainable index.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import grad_rel_err, read_masks, sparse_from_bits
from masktune.data import Dataset, load_dataset_csv, save_dataset_csv
from masktune.errors import InputError, NumericError
from masktune.losses import (
    RegConfig,
    RegularSet,
    reg_penalty,
    resolve_penalty,
    resolve_regular_layers,
    scl_loss,
)
from masktune.linalg import finite_diff_grad, frobenius_sq
from masktune.masking import (
    GradientMaskSet,
    LayerMask,
    brute_force_best_rows,
    build_mask,
    mask_objective,
    retained_energy,
    save_masks,
)
from masktune.model import (
    GradientSet,
    Layer,
    LayerGrad,
    ModelParams,
    backward,
    forward,
    layer_roles,
    load_checkpoint,
    save_checkpoint,
)
from masktune.optim import AdamState, OptimConfig, init_adam_state, masked_adam_step

VARIANTS = ("row", "col", "sparse", "bits", "full", "empty")
CFG = OptimConfig(base_lr=0.1, total_epochs=10)


def dense_masked_adam_step(model, state, grad, masks, lr, cfg):
    """Oracle: Adam over whole matrices, masked gradients, frozen entries restored."""
    t = state.t + 1
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    new_layers, new_m, new_v = [], [], []
    for layer, g, mask, m, v in zip(model.layers, grad.layers, masks.layers,
                                    state.m.layers, state.v.layers):
        if not (np.all(np.isfinite(g.weight)) and np.all(np.isfinite(g.bias))):
            raise NumericError("non-finite gradient entry")
        wm = mask.to_dense()
        bm = mask.bias_mask()
        gw = g.weight * wm
        gb = g.bias * bm
        mw = b1 * m.weight + (1.0 - b1) * gw
        mb = b1 * m.bias + (1.0 - b1) * gb
        vw = b2 * v.weight + (1.0 - b2) * gw * gw
        vb = b2 * v.bias + (1.0 - b2) * gb * gb
        weight = layer.weight - lr * (mw / bc1) / np.sqrt(vw / bc2 + eps)
        bias = layer.bias - lr * (mb / bc1) / np.sqrt(vb / bc2 + eps)
        weight = np.where(wm == 0.0, layer.weight, weight)
        bias = np.where(bm == 0.0, layer.bias, bias)
        new_layers.append(Layer(weight, bias))
        new_m.append(LayerGrad(mw, mb))
        new_v.append(LayerGrad(vw, vb))
    return ModelParams(new_layers), AdamState(GradientSet(new_m), GradientSet(new_v), t)


def dense_zeros(model):
    """Full-shape zero gradients, the dense oracle's starting moments."""
    return GradientSet([LayerGrad(np.zeros_like(l.weight), np.zeros_like(l.bias))
                        for l in model.layers])


def sliced(grad, masks):
    """The trainable slices of full-shape gradients, as backward returns them."""
    return GradientSet([LayerGrad(g.weight[m.trainable[0]], g.bias[m.trainable[1]])
                        for g, m in zip(grad.layers, masks.layers)])


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
        grads.layers[l].weight = delta.T @ cache.inputs[l]
        grads.layers[l].bias = delta.sum(axis=0)
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
        return LayerMask("sparse", shape, tuple(subset(cols, 0) for _ in range(rows)))
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
    model = ModelParams(layers)
    masks = GradientMaskSet(tuple(random_mask(rng, v, l.weight.shape)
                                  for v, l in zip(variants, layers)))
    return rng, model, masks


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def trainable_count(masks):
    return int(sum(m.to_dense().sum() + m.bias_mask().sum() for m in masks.layers))


setups = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.integers(1, 6), min_size=n + 1, max_size=n + 1),
    st.lists(st.sampled_from(VARIANTS), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(setup=setups, steps=st.integers(1, 20))
def test_sliced_step_matches_dense_oracle_bitwise(setup, steps):
    rng, model, masks = random_setup(*setup)
    start = model.copy()
    oracle = model.copy()
    state = init_adam_state(model, masks)
    oracle_state = AdamState(dense_zeros(model), dense_zeros(model))
    for _ in range(steps):
        grad = GradientSet([LayerGrad(rng.normal(size=l.weight.shape),
                                      rng.normal(size=l.bias.shape)) for l in model.layers])
        lr = float(rng.uniform(1e-3, 0.1))
        model, state = masked_adam_step(model, state, sliced(grad, masks), masks, lr, CFG)
        oracle, oracle_state = dense_masked_adam_step(oracle, oracle_state, grad, masks, lr, CFG)
        for got, want in zip(model.layers, oracle.layers):
            assert bits(got.weight) == bits(want.weight)
            assert bits(got.bias) == bits(want.bias)
    assert state.t == oracle_state.t == steps
    for got, first, mask in zip(model.layers, start.layers, masks.layers):
        frozen_w = mask.to_dense() == 0.0
        frozen_b = mask.bias_mask() == 0.0
        assert bits(got.weight[frozen_w]) == bits(first.weight[frozen_w])
        assert bits(got.bias[frozen_b]) == bits(first.bias[frozen_b])


@settings(max_examples=60, deadline=None)
@given(setup=setups)
def test_state_size_equals_trainable_count(setup):
    _, model, masks = random_setup(*setup)
    state = init_adam_state(model, masks)
    for moments in (state.m, state.v):
        assert sum(g.weight.size + g.bias.size for g in moments.layers) == trainable_count(masks)
    assert state.nbytes == 2 * 8 * trainable_count(masks)


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
    model = pre.copy()
    for layer, mask in zip(model.layers, masks.layers):
        wi, bi = mask.trainable
        layer.weight[wi] += rng.normal(size=layer.weight[wi].shape)
        layer.bias[bi] += rng.normal(size=layer.bias[bi].shape)

    loss, grads = reg_penalty(model, resolve_penalty(pre, cfg, masks))
    penalized = set(resolve_regular_layers(pre, regular))
    dense_loss = 0.0
    for i, (layer, first, mask) in enumerate(zip(model.layers, pre.layers, masks.layers)):
        if i not in penalized:
            assert grads.layers[i] is None
            continue
        dw, db = layer.weight - first.weight, layer.bias - first.bias
        if norm == "l2":
            dense_w, dense_b = 2.0 * lam * dw, 2.0 * lam * db
            dense_loss += lam * (float(np.sum(dw * dw)) + float(np.sum(db * db)))
        else:
            dense_w, dense_b = lam * np.sign(dw), lam * np.sign(db)
            dense_loss += lam * (float(np.sum(np.abs(dw))) + float(np.sum(np.abs(db))))
        wi, bi = mask.trainable
        assert bits(grads.layers[i].weight) == bits(dense_w[wi])
        assert bits(grads.layers[i].bias) == bits(dense_b[bi])
    assert abs(loss - dense_loss) <= 1e-14 * abs(dense_loss)


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

    for i, (g, w, mask, layer) in enumerate(zip(got.layers, want.layers, masks.layers,
                                                model.layers)):
        wi, bi = mask.trainable
        assert g.weight.shape == layer.weight[wi].shape and g.bias.shape == layer.bias[bi].shape
        if i < lowest:
            assert g.weight.size == 0 and g.bias.size == 0
        elif mask.variant in ("full", "sparse"):
            assert bits(g.weight) == bits(w.weight[wi])
            assert bits(g.bias) == bits(w.bias[bi])
        else:
            tol = SLICE_TOL * (1.0 + max(np.abs(w.weight).max(), np.abs(w.bias).max()))
            assert np.all(np.abs(g.weight - w.weight[wi]) <= tol)
            assert np.all(np.abs(g.bias - w.bias[bi]) <= tol)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.lists(st.integers(1, 6), min_size=3, max_size=5),
       batch=st.integers(1, 8))
def test_all_full_backward_is_the_dense_oracle_bitwise(seed, dims, batch):
    rng, model, masks = random_setup(seed, dims, ["full"] * (len(dims) - 1))
    logits, features, cache = forward(model, rng.normal(size=(batch, dims[0])))
    for upstream in ({"d_logits": rng.normal(size=logits.shape)},
                     {"d_features": rng.normal(size=features.shape)}):
        got = backward(model, cache, masks, **upstream)
        want = dense_backward(model, cache, **upstream)
        for g, w in zip(got.layers, want.layers):
            assert bits(g.weight) == bits(w.weight) and bits(g.bias) == bits(w.bias)


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
    penalty = resolve_penalty(pre, cfg, masks)
    # trainable entries move at least 0.1 away, far from l1's kink at the anchor
    model = pre.copy()
    for layer, mask in zip(model.layers, masks.layers):
        for param, index in zip((layer.weight, layer.bias), mask.trainable):
            step = rng.uniform(0.1, 1.0, size=param[index].shape)
            param[index] += np.where(rng.uniform(size=step.shape) < 0.5, -step, step)
    _, grads = reg_penalty(model, penalty)
    for i, wi, bi in penalty.layers:
        for field, index in (("weight", wi), ("bias", bi)):
            def loss_of(values, i=i, field=field, index=index):
                probe = model.copy()
                getattr(probe.layers[i], field)[index] = values
                return reg_penalty(probe, penalty)[0]
            fd = finite_diff_grad(loss_of, getattr(model.layers[i], field)[index], 1e-6)
            assert grad_rel_err(getattr(grads.layers[i], field), fd) < FD_TOL


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    """A model of 1-3 layers with any finite values."""
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    layers = [Layer(draw(hnp.arrays(np.float64, (dims[i + 1], dims[i]), elements=finite)),
                    draw(hnp.arrays(np.float64, dims[i + 1], elements=finite)))
              for i in range(len(dims) - 1)]
    return ModelParams(layers)


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_checkpoint_round_trips_value_exact_into_writeable_arrays(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
    assert loaded.dims == model.dims
    for got, want in zip(loaded.layers, model.layers):
        for a, b in ((got.weight, want.weight), (got.bias, want.bias)):
            assert a.dtype == np.float64 and a.shape == b.shape
            assert bits(a) == bits(b)
            assert a.flags.writeable and a.flags.owndata


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_saving_twice_gives_identical_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save_checkpoint(model, first)
        save_checkpoint(model.copy(), second)
        assert first.read_bytes() == second.read_bytes()


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


def indices_to_dense(mask):
    """0/1 matrix of a mask, built from its indices rather than its trainable index."""
    m = np.zeros(mask.shape)
    if mask.variant == "full":
        m[:, :] = 1.0
    elif mask.variant == "row":
        for i in mask.indices:
            m[i, :] = 1.0
    elif mask.variant == "col":
        for j in mask.indices:
            m[:, j] = 1.0
    else:
        for i, cols in enumerate(mask.indices):
            for j in cols:
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
