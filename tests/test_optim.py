import numpy as np
import pytest

from conftest import sparse_from_bits
from masktune.errors import ConfigError, NumericError, ShapeError
from masktune.masking import GradientMaskSet, LayerMask, full_mask
from masktune.model import GradientSet, Layer, LayerGrad, ModelParams
from masktune.optim import AdamState, OptimConfig, cosine_warmup_lr, init_adam_state, masked_adam_step


def one_layer_model(w, b=None):
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return ModelParams([Layer(w, b)])


def grad_of(masks, gw, gb=None):
    """The gradient over the trainable slice of a one-layer model."""
    gw = np.asarray(gw, dtype=np.float64)
    gb = np.zeros(gw.shape[0]) if gb is None else np.asarray(gb, dtype=np.float64)
    wi, bi = masks.layers[0].trainable
    return GradientSet([LayerGrad(gw[wi], gb[bi])])


CFG = OptimConfig(base_lr=0.1, total_epochs=10, warmup_epochs=2)


class TestSchedule:
    def test_warmup_endpoint(self):
        assert cosine_warmup_lr(2, CFG) == CFG.base_lr

    def test_final_epoch_zero(self):
        assert abs(cosine_warmup_lr(10, CFG)) < 1e-16

    def test_midpoint(self):
        assert abs(cosine_warmup_lr(6, CFG) - CFG.base_lr / 2) < 1e-12

    def test_warmup_is_linear_from_zero(self):
        assert cosine_warmup_lr(0, CFG) == 0.0
        assert cosine_warmup_lr(1, CFG) == CFG.base_lr / 2

    def test_non_increasing_after_warmup(self):
        lrs = [cosine_warmup_lr(e, CFG) for e in range(2, 11)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            cosine_warmup_lr(11, CFG)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            OptimConfig(base_lr=0.1, total_epochs=5, warmup_epochs=5)


def reference_adam_step(w, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent textbook Adam with epsilon inside the square root."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return w - lr * m_hat / np.sqrt(v_hat + eps), m, v


class TestMaskedAdam:
    def test_all_zero_mask_is_identity(self):
        w = np.array([[0.5, -0.25], [1.5, 2.0]])
        model = one_layer_model(w)
        masks = GradientMaskSet((LayerMask("row", (2, 2), ()),))
        state = init_adam_state(model, masks)
        new_model, new_state = masked_adam_step(
            model, state, grad_of(masks, [[3.0, -1.0], [2.0, 0.5]]), masks, 0.1, CFG)
        assert np.array_equal(new_model.layers[0].weight, w)
        assert np.all(new_state.m.layers[0].weight == 0.0)
        assert np.all(new_state.v.layers[0].weight == 0.0)

    def test_first_step_is_signed_lr(self):
        # bias-corrected first step with constant gradient c and eps << |c|
        c = 3.0
        model = one_layer_model(np.zeros((2, 2)))
        w0 = model.layers[0].weight.copy()
        masks = GradientMaskSet((full_mask((2, 2)),))
        state = init_adam_state(model, masks)
        lr = 0.05
        new_model, _ = masked_adam_step(
            model, state, grad_of(masks, np.full((2, 2), c)), masks, lr, CFG)
        delta = new_model.layers[0].weight - w0
        assert np.all(np.abs(delta + lr * np.sign(c)) < 1e-6 * lr)

    def test_five_step_scalar_trace(self):
        w = np.array([[1.0]])
        model = one_layer_model(w)
        masks = GradientMaskSet((full_mask((1, 1)),))
        state = init_adam_state(model, masks)
        rw, rm, rv = w.copy(), np.zeros((1, 1)), np.zeros((1, 1))
        rng = np.random.default_rng(3)
        for t in range(1, 6):
            g = rng.normal(size=(1, 1))
            model, state = masked_adam_step(model, state, grad_of(masks, g), masks, 0.01, CFG)
            rw, rm, rv = reference_adam_step(rw, rm, rv, g, t, 0.01)
            assert np.all(np.abs(model.layers[0].weight - rw) <= 1e-15)

    def test_equivalence_masked_vs_prezeroed(self):
        rng = np.random.default_rng(9)
        mask_bits = (rng.uniform(size=(3, 4)) < 0.5).astype(float)
        masks = GradientMaskSet((sparse_from_bits(mask_bits),))
        bias_bits = masks.layers[0].bias_mask()

        w0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=3)
        model = one_layer_model(w0.copy(), b0.copy())
        state = init_adam_state(model, masks)
        rw, rb = w0.copy(), b0.copy()
        rmw, rvw = np.zeros_like(w0), np.zeros_like(w0)
        rmb, rvb = np.zeros_like(b0), np.zeros_like(b0)
        for t in range(1, 101):
            gw = rng.normal(size=(3, 4))
            gb = rng.normal(size=3)
            model, state = masked_adam_step(model, state, grad_of(masks, gw, gb),
                                            masks, 0.02, CFG)
            rw, rmw, rvw = reference_adam_step(rw, rmw, rvw, gw * mask_bits, t, 0.02)
            rb, rmb, rvb = reference_adam_step(rb, rmb, rvb, gb * bias_bits, t, 0.02)
            assert np.all(np.abs(model.layers[0].weight - rw) <= 1e-15)
            assert np.all(np.abs(model.layers[0].bias - rb) <= 1e-15)
        # frozen entries bitwise untouched over the whole run
        assert np.array_equal(model.layers[0].weight[mask_bits == 0], w0[mask_bits == 0])
        assert np.array_equal(model.layers[0].bias[bias_bits == 0], b0[bias_bits == 0])

    def test_full_mask_equals_standard_adam(self):
        rng = np.random.default_rng(4)
        w0 = rng.normal(size=(2, 3))
        model = one_layer_model(w0.copy())
        masks = GradientMaskSet((full_mask((2, 3)),))
        state = init_adam_state(model, masks)
        rw, rm, rv = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        for t in range(1, 21):
            g = rng.normal(size=(2, 3))
            model, state = masked_adam_step(model, state, grad_of(masks, g), masks, 0.01, CFG)
            rw, rm, rv = reference_adam_step(rw, rm, rv, g, t, 0.01)
            assert np.array_equal(model.layers[0].weight, rw)

    def test_nonfinite_gradient(self):
        model = one_layer_model(np.zeros((1, 1)))
        masks = GradientMaskSet((full_mask((1, 1)),))
        with pytest.raises(NumericError):
            masked_adam_step(model, init_adam_state(model, masks),
                             grad_of(masks, [[np.inf]]), masks, 0.1, CFG)

    def test_gradient_shaped_like_the_whole_matrix_is_refused(self):
        model = one_layer_model(np.zeros((3, 2)))
        masks = GradientMaskSet((LayerMask("row", (3, 2), (1,)),))
        whole = GradientSet([LayerGrad(np.ones((3, 2)), np.ones(3))])
        with pytest.raises(ShapeError):
            masked_adam_step(model, init_adam_state(model, masks), whole, masks, 0.1, CFG)
        assert np.all(model.layers[0].weight == 0.0)

    def test_step_counter(self):
        model = one_layer_model(np.zeros((1, 1)))
        masks = GradientMaskSet((full_mask((1, 1)),))
        state = init_adam_state(model, masks)
        _, state = masked_adam_step(model, state, grad_of(masks, [[1.0]]), masks, 0.1, CFG)
        assert state.t == 1
