import math

import numpy as np
import pytest

from conftest import (copy_model, finite_diff_grad, grad_rel_err, layer_grads, peak_bytes,
                      small_model)
from masktune.errors import ConfigError, InputError, ShapeError
from masktune.losses import (
    RegConfig,
    RegularSet,
    _square_blocks,
    combined_grad,
    cross_entropy,
    reg_penalty,
    resolve_penalty,
    resolve_regular_layers,
    scl_loss,
    scl_loss_pass,
)
from masktune.masking import GradientMaskSet, LayerMask
from masktune.model import _CHUNK, Layer, ModelParams, forward, row_chunks


def full_penalty(pre, cfg):
    """The penalty towards pre with every entry trainable."""
    return resolve_penalty(pre.layers, cfg, GradientMaskSet.all_full(pre))


def full_reg_penalty(model, pre, cfg):
    """The penalty's loss and its per-layer (weight, bias) gradients, every entry trainable."""
    masks = GradientMaskSet.all_full(pre)
    grad = np.zeros(masks.size)
    loss = reg_penalty(model, resolve_penalty(pre.layers, cfg, masks), grad)
    return loss, layer_grads(masks, grad)


def scl_reference(features, labels, tau):
    """Independent loop implementation of the contrastive loss."""
    z = features / np.linalg.norm(features, axis=1, keepdims=True)
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not pos:
            continue
        others = [a for a in range(n) if a != i]
        denom = sum(math.exp(float(z[i] @ z[a]) / tau) for a in others)
        total += -sum(math.log(math.exp(float(z[i] @ z[p]) / tau) / denom)
                      for p in pos) / len(pos)
    return total


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((3, 4)), np.array([0, 1, 2]))
        assert abs(loss - math.log(4)) < 1e-12

    def test_confident_correct(self):
        logits = np.array([[1e3, 0.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-6

    def test_hand_value(self):
        loss, _ = cross_entropy(np.array([[1.0, 2.0]]), np.array([1]))
        assert abs(loss - math.log(1 + math.exp(-1))) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("label", [-1, -3, np.iinfo(np.int64).min])
    def test_negative_label(self, label):
        # the range check reads the labels as unsigned, where a negative one wraps above C
        with pytest.raises(InputError, match=r"labels must lie in \[0, 3\)"):
            cross_entropy(np.zeros((2, 3)), np.array([0, label]))

    def test_gradient_matches_finite_diff(self, np_rng):
        logits = np_rng.normal(size=(5, 4))
        y = np_rng.integers(0, 4, size=5)
        _, d = cross_entropy(logits, y)
        fd = finite_diff_grad(lambda L: cross_entropy(L, y)[0], logits, 1e-5)
        assert grad_rel_err(d, fd) < 1e-6


class TestSclLoss:
    def test_two_identical_same_class(self):
        f = np.array([[1.0, 2.0], [1.0, 2.0]])
        loss, _ = scl_loss(f, np.array([0, 0]), 1.0)
        assert abs(loss) < 1e-12

    def test_all_distinct_classes(self, np_rng):
        f = np_rng.normal(size=(4, 3))
        loss, d = scl_loss(f, np.array([0, 1, 2, 3]), 0.5)
        assert loss == 0.0
        assert np.array_equal(d, np.zeros_like(f))

    def test_three_sample_reference_value(self):
        f = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]])
        y = np.array([0, 0, 1])
        loss, _ = scl_loss(f, y, 1.0)
        assert abs(loss - scl_reference(f, y, 1.0)) < 1e-12

    def test_random_against_reference(self, np_rng):
        for _ in range(10):
            f = np_rng.normal(size=(7, 4))
            y = np_rng.integers(0, 3, size=7)
            loss, _ = scl_loss(f, y, 0.25)
            assert abs(loss - scl_reference(f, y, 0.25)) < 1e-10 * max(1.0, abs(loss))

    def test_gradient_matches_finite_diff(self, np_rng):
        f = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        _, d = scl_loss(f, y, 0.4)
        fd = finite_diff_grad(lambda F: scl_loss(F, y, 0.4)[0], f, 1e-5)
        assert grad_rel_err(d, fd) < 1e-4

    def test_scale_invariance(self, np_rng):
        f = np_rng.normal(size=(5, 3))
        y = np_rng.integers(0, 2, size=5)
        base, _ = scl_loss(f, y, 0.7)
        scaled, _ = scl_loss(f * np_rng.uniform(0.1, 10.0, size=(5, 1)), y, 0.7)
        assert abs(base - scaled) < 1e-10 * max(1.0, abs(base))

    def test_permutation_equivariance(self, np_rng):
        f = np_rng.normal(size=(6, 3))
        y = np_rng.integers(0, 2, size=6)
        perm = np_rng.permutation(6)
        base, _ = scl_loss(f, y, 0.5)
        permuted, _ = scl_loss(f[perm], y[perm], 0.5)
        # floating-point reassociation only; mathematically identical
        assert abs(base - permuted) < 1e-12 * max(1.0, abs(base))

    def test_small_batch_rejected(self):
        with pytest.raises(InputError):
            scl_loss(np.ones((1, 2)), np.array([0]), 1.0)

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            scl_loss(np.ones((2, 2)), np.array([0, 0]), 0.0)

    @pytest.mark.parametrize("d", [768, 64])
    @pytest.mark.parametrize("into_features", [False, True])
    def test_peak_is_one_square_buffer_the_feature_copies_and_three_blocks(self, np_rng, d,
                                                                            into_features):
        # the buffer, z (formed in the features' own buffer when they are given as out,
        # so one copy fewer) and its product with the buffer, which the Jacobian turns
        # into the gradient, or, before that product exists, at most three row blocks
        # of the passes (a slab, its transposed operand and their sum); never above one
        # more feature copy and a single block, which is the tighter bound at d = 64,
        # where a second n x n array would not fit either
        n = 1000
        f = np_rng.normal(size=(n, d))
        y = np_rng.integers(0, 10, size=n)
        copies = 1 if into_features else 2
        bound = 8 * n * n + min(copies * 8 * n * d + 3 * 8 * _CHUNK,
                                (copies + 1) * 8 * n * d + 8 * _CHUNK) + 64 * 1024
        out = f if into_features else None
        assert peak_bytes(lambda: scl_loss(f, y, 0.5, out=out)) <= bound

    @pytest.mark.parametrize("n", [2, 32, 33, 200, 1000, 1023, 1024, 1100, 4000])
    def test_the_passes_blocks_are_at_most_32_rows_and_chunk_entries(self, n):
        blocks = list(_square_blocks(n))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        rows = max(b.stop - b.start for b in blocks)
        assert rows <= 32 and rows * n <= _CHUNK
        if n >= 1000:  # wide-mask-report's 1000 rows and up: the blocks of row_chunks
            assert blocks == list(row_chunks(n, n))

    def test_the_gradient_written_into_the_features_is_the_fresh_one(self, np_rng):
        f = np_rng.normal(size=(40, 7))
        y = np_rng.integers(0, 3, size=40)
        before = f.tobytes()
        loss, fresh = scl_loss(f, y, 0.5)
        assert f.tobytes() == before  # the pass took a copy: out is not f
        features = f.copy()
        into_loss, into = scl_loss(features, y, 0.5, out=features)
        assert into is features
        assert (into_loss, into.tobytes()) == (loss, fresh.tobytes())
        with pytest.raises(ShapeError):
            scl_loss(f, y, 0.5, out=np.empty((40, 6)))
        with pytest.raises(ShapeError):
            scl_loss(f, y, 0.5, out=np.empty((7, 40)).T)

    def test_the_loss_pass_is_the_loss(self, np_rng):
        f = np_rng.normal(size=(30, 5))
        y = np_rng.integers(0, 3, size=30)
        state = scl_loss_pass(f, y, 0.5)
        assert state.loss == scl_loss(f, y, 0.5)[0]
        assert state.buffer.shape == (30, 30) and np.all(np.diag(state.buffer) == 0.0)


class TestRegPenalty:
    def make_pair(self):
        model = small_model(dims=(4, 5, 5, 3), seed=1)
        pre = small_model(dims=(4, 5, 5, 3), seed=2)
        return model, pre

    def test_identical_models(self):
        model, _ = self.make_pair()
        cfg = RegConfig(lam=0.3, norm="l2", regular=RegularSet(1))
        loss, grads = full_reg_penalty(model, copy_model(model), cfg)
        assert loss == 0.0
        assert all(np.all(w == 0) and np.all(b == 0) for w, b in grads)

    def test_zero_lambda(self):
        model, pre = self.make_pair()
        cfg = RegConfig(lam=0.0, norm="l2", regular=RegularSet(1))
        loss, _ = full_reg_penalty(model, pre, cfg)
        assert loss == 0.0

    def test_hand_single_layer(self):
        w = np.eye(2)
        model = ModelParams.from_layers([Layer(w.copy(), np.zeros(2))])
        pre = ModelParams.from_layers([Layer(np.zeros((2, 2)), np.zeros(2))])
        cfg = RegConfig(lam=0.5, norm="l2", regular=RegularSet(0, include_head=True))
        loss, grads = full_reg_penalty(model, pre, cfg)
        assert loss == 1.0
        assert np.array_equal(grads[0][0], np.eye(2))

    def test_l2_equals_frobenius_sum(self):
        model = small_model(dims=(4, 5, 5, 5, 3), seed=1)
        pre = small_model(dims=(4, 5, 5, 5, 3), seed=2)
        cfg = RegConfig(lam=0.7, norm="l2",
                        regular=RegularSet(2, include_embedding=True, include_head=True))
        loss, _ = full_reg_penalty(model, pre, cfg)
        expected = 0.7 * sum(
            float(np.sum((model.layers[i].weight - pre.layers[i].weight) ** 2))
            + float(np.sum((model.layers[i].bias - pre.layers[i].bias) ** 2))
            for i in resolve_regular_layers(len(model.layers), cfg.regular))
        assert loss == expected

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gradient_matches_finite_diff(self, norm):
        model, pre = self.make_pair()
        cfg = RegConfig(lam=0.4, norm=norm, regular=RegularSet(1, include_head=True))
        _, grads = full_reg_penalty(model, pre, cfg)
        for li in resolve_regular_layers(len(model.layers), cfg.regular):
            def loss_of(wmat, li=li):
                probe = copy_model(model)
                probe.layers[li].weight[...] = wmat
                return full_reg_penalty(probe, pre, cfg)[0]
            fd = finite_diff_grad(loss_of, model.layers[li].weight, 1e-6)
            assert grad_rel_err(grads[li][0], fd) < 1e-4

    def test_regular_set_resolution(self):
        model = small_model(dims=(4, 5, 5, 5, 3), seed=0)  # emb, hid, hid, head
        assert resolve_regular_layers(
            len(model.layers), RegularSet(1, include_embedding=False, include_head=False)) == [2]
        assert resolve_regular_layers(
            len(model.layers), RegularSet(2, include_embedding=True,
                                          include_head=True)) == [0, 1, 2, 3]
        with pytest.raises(ConfigError):
            resolve_regular_layers(len(model.layers), RegularSet(3))

    def test_all_full_masks_view_the_anchor(self):
        pre = small_model(dims=(64, 256, 256, 8), seed=2)
        cfg = RegConfig(lam=0.3, norm="l2", regular=RegularSet(1))
        full = GradientMaskSet.all_full(pre)
        penalty = resolve_penalty(pre.layers, cfg, full)
        assert penalty.index is None and len(penalty.parts) == 2 * len(pre.layers)
        assert all(np.shares_memory(part.anchor, pre.params) for part in penalty.parts)
        # resolving copies none of the anchor's 680 KB
        assert peak_bytes(lambda: resolve_penalty(pre.layers, cfg, full)) < 1 << 14

    def test_regular_layers_covering_the_layout_gather_through_positions_itself(self):
        pre = small_model(dims=(4, 5, 5, 3), seed=2)
        masks = GradientMaskSet((LayerMask("row", (5, 4), (1, 3)), LayerMask("col", (5, 5), (0,)),
                                 LayerMask("full", (3, 5))))
        every = resolve_penalty(pre.layers, RegConfig(0.3, "l2", RegularSet(1)), masks)
        assert every.index is masks.positions
        no_head = RegularSet(1, include_head=False)
        part = resolve_penalty(pre.layers, RegConfig(0.3, "l2", no_head), masks)
        assert part.index is masks.positions


class TestCombinedGrad:
    def test_zero_lambda_equals_cross_entropy(self, np_rng):
        model = small_model(seed=5)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        cfg = RegConfig(lam=0.0, norm="l2", regular=RegularSet(1))
        loss_r, ce, grad = combined_grad(model, GradientMaskSet.all_full(model), full_penalty(copy_model(model), cfg), x, y)
        assert loss_r == ce
        from masktune.losses import cross_entropy as ce_fn
        from masktune.model import backward
        logits, _, cache = forward(model, x)
        _, d = ce_fn(logits, y)
        ref = backward(model, cache, GradientMaskSet.all_full(model), d_logits=d)
        assert np.array_equal(grad, ref)

    def test_is_exact_sum_of_parts(self, np_rng):
        model = small_model(seed=5)
        pre = small_model(seed=6)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        cfg = RegConfig(lam=0.2, norm="l2", regular=RegularSet(1, include_head=True))
        masks = GradientMaskSet.all_full(model)
        loss_r, ce, grad = combined_grad(model, masks, full_penalty(pre, cfg), x, y)
        reg_loss, reg_grads = full_reg_penalty(model, pre, cfg)
        assert loss_r == ce + reg_loss
        logits, _, cache = forward(model, x)
        from masktune.model import backward
        _, d = cross_entropy(logits, y)
        ce_grads = layer_grads(masks, backward(model, cache, masks, d_logits=d))
        regular = resolve_regular_layers(len(model.layers), cfg.regular)
        for i, (g, a, b) in enumerate(zip(layer_grads(masks, grad), ce_grads, reg_grads)):
            if i not in regular:  # outside the regular set: the CE gradient alone
                assert not b[0].any() and not b[1].any()
            assert np.array_equal(g[0], a[0] + b[0])
            assert np.array_equal(g[1], a[1] + b[1])

    def test_gradient_matches_finite_diff(self, np_rng):
        model = small_model(seed=9)
        pre = small_model(seed=10)
        x = np_rng.normal(size=(5, 4))
        y = np_rng.integers(0, 3, size=5)
        cfg = RegConfig(lam=0.15, norm="l2", regular=RegularSet(1, include_head=True))
        masks = GradientMaskSet.all_full(model)
        grads = layer_grads(masks, combined_grad(model, masks, full_penalty(pre, cfg), x, y)[2])
        for li in range(len(model.layers)):
            def loss_of(wmat, li=li):
                probe = copy_model(model)
                probe.layers[li].weight[...] = wmat
                return combined_grad(probe, GradientMaskSet.all_full(probe), full_penalty(pre, cfg), x, y)[0]
            fd = finite_diff_grad(loss_of, model.layers[li].weight, 1e-5)
            assert grad_rel_err(grads[li][0], fd) < 1e-4
