import math

import numpy as np
import pytest

from conftest import grad_rel_err, small_model
from masktune.errors import ConfigError, InputError
from masktune.linalg import finite_diff_grad
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
from masktune.masking import GradientMaskSet
from masktune.model import Layer, LayerGrad, ModelParams, forward


def full_penalty(pre, cfg):
    """The penalty towards pre with every entry trainable."""
    return resolve_penalty(pre, cfg, GradientMaskSet.all_full(pre))


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


class TestRegPenalty:
    def make_pair(self):
        model = small_model(dims=(4, 5, 5, 3), seed=1)
        pre = small_model(dims=(4, 5, 5, 3), seed=2)
        return model, pre

    def test_identical_models(self):
        model, _ = self.make_pair()
        cfg = RegConfig(lam=0.3, norm="l2", regular=RegularSet(1))
        loss, grads = reg_penalty(model, full_penalty(model.copy(), cfg))
        assert loss == 0.0
        assert all(np.all(g.weight == 0) for g in grads.layers if g is not None)

    def test_zero_lambda(self):
        model, pre = self.make_pair()
        cfg = RegConfig(lam=0.0, norm="l2", regular=RegularSet(1))
        loss, _ = reg_penalty(model, full_penalty(pre, cfg))
        assert loss == 0.0

    def test_hand_single_layer(self):
        w = np.eye(2)
        model = ModelParams([Layer(w.copy(), np.zeros(2))])
        pre = ModelParams([Layer(np.zeros((2, 2)), np.zeros(2))])
        cfg = RegConfig(lam=0.5, norm="l2", regular=RegularSet(0, include_head=True))
        loss, grads = reg_penalty(model, full_penalty(pre, cfg))
        assert loss == 1.0
        assert np.array_equal(grads.layers[0].weight, np.eye(2))

    def test_l2_equals_frobenius_sum(self):
        model = small_model(dims=(4, 5, 5, 5, 3), seed=1)
        pre = small_model(dims=(4, 5, 5, 5, 3), seed=2)
        cfg = RegConfig(lam=0.7, norm="l2",
                        regular=RegularSet(2, include_embedding=True, include_head=True))
        loss, _ = reg_penalty(model, full_penalty(pre, cfg))
        expected = 0.7 * sum(
            float(np.sum((model.layers[i].weight - pre.layers[i].weight) ** 2))
            + float(np.sum((model.layers[i].bias - pre.layers[i].bias) ** 2))
            for i in resolve_regular_layers(model, cfg.regular))
        assert loss == expected

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gradient_matches_finite_diff(self, norm):
        model, pre = self.make_pair()
        cfg = RegConfig(lam=0.4, norm=norm, regular=RegularSet(1, include_head=True))
        _, grads = reg_penalty(model, full_penalty(pre, cfg))
        for li in resolve_regular_layers(model, cfg.regular):
            def loss_of(wmat, li=li):
                probe = model.copy()
                probe.layers[li].weight = wmat
                return reg_penalty(probe, full_penalty(pre, cfg))[0]
            fd = finite_diff_grad(loss_of, model.layers[li].weight, 1e-6)
            assert grad_rel_err(grads.layers[li].weight, fd) < 1e-4

    def test_regular_set_resolution(self):
        model = small_model(dims=(4, 5, 5, 5, 3), seed=0)  # emb, hid, hid, head
        assert resolve_regular_layers(
            model, RegularSet(1, include_embedding=False, include_head=False)) == [2]
        assert resolve_regular_layers(
            model, RegularSet(2, include_embedding=True, include_head=True)) == [0, 1, 2, 3]
        with pytest.raises(ConfigError):
            resolve_regular_layers(model, RegularSet(3))


class TestCombinedGrad:
    def test_zero_lambda_equals_cross_entropy(self, np_rng):
        model = small_model(seed=5)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        cfg = RegConfig(lam=0.0, norm="l2", regular=RegularSet(1))
        loss_r, ce, grads = combined_grad(model, GradientMaskSet.all_full(model), full_penalty(model.copy(), cfg), x, y)
        assert loss_r == ce
        from masktune.losses import cross_entropy as ce_fn
        from masktune.model import backward
        logits, _, cache = forward(model, x)
        _, d = ce_fn(logits, y)
        ref = backward(model, cache, GradientMaskSet.all_full(model), d_logits=d)
        for a, b in zip(grads.layers, ref.layers):
            assert np.array_equal(a.weight, b.weight)

    def test_is_exact_sum_of_parts(self, np_rng):
        model = small_model(seed=5)
        pre = small_model(seed=6)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        cfg = RegConfig(lam=0.2, norm="l2", regular=RegularSet(1, include_head=True))
        loss_r, ce, grads = combined_grad(model, GradientMaskSet.all_full(model), full_penalty(pre, cfg), x, y)
        reg_loss, reg_grads = reg_penalty(model, full_penalty(pre, cfg))
        assert loss_r == ce + reg_loss
        logits, _, cache = forward(model, x)
        from masktune.model import backward
        _, d = cross_entropy(logits, y)
        ce_grads = backward(model, cache, GradientMaskSet.all_full(model), d_logits=d)
        for g, a, b in zip(grads.layers, ce_grads.layers, reg_grads.layers):
            if b is None:  # outside the regular set
                b = LayerGrad(0.0, 0.0)
            assert np.array_equal(g.weight, a.weight + b.weight)
            assert np.array_equal(g.bias, a.bias + b.bias)

    def test_gradient_matches_finite_diff(self, np_rng):
        model = small_model(seed=9)
        pre = small_model(seed=10)
        x = np_rng.normal(size=(5, 4))
        y = np_rng.integers(0, 3, size=5)
        cfg = RegConfig(lam=0.15, norm="l2", regular=RegularSet(1, include_head=True))
        _, _, grads = combined_grad(model, GradientMaskSet.all_full(model), full_penalty(pre, cfg), x, y)
        for li in range(len(model.layers)):
            def loss_of(wmat, li=li):
                probe = model.copy()
                probe.layers[li].weight = wmat
                return combined_grad(probe, GradientMaskSet.all_full(probe), full_penalty(pre, cfg), x, y)[0]
            fd = finite_diff_grad(loss_of, model.layers[li].weight, 1e-5)
            assert grad_rel_err(grads.layers[li].weight, fd) < 1e-4
