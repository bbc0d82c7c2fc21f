import json

import numpy as np
import pytest

from conftest import grad_rel_err, small_model
from masktune.errors import ConfigError, InputError, ShapeError, StateError
from masktune.linalg import Rng, finite_diff_grad
from masktune.losses import cross_entropy
from masktune.masking import GradientMaskSet
from masktune.model import (
    Layer,
    ModelParams,
    backward,
    forward,
    init_model,
    layer_roles,
    load_checkpoint,
    reinit_head,
    save_checkpoint,
)


class TestInit:
    def test_uniform_bounds(self):
        m = init_model([4, 3], seed=0)
        assert np.all(np.abs(m.layers[0].weight) <= 0.5)

    def test_same_seed_identical(self):
        a = init_model([4, 5, 3], seed=11)
        b = init_model([4, 5, 3], seed=11)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)

    def test_biases_zero(self):
        m = init_model([4, 5, 3], seed=0)
        assert all(np.all(l.bias == 0.0) for l in m.layers)

    def test_roles(self):
        m = init_model([4, 5, 6, 3], seed=0)
        assert layer_roles(len(m.layers)) == ["embedding", "hidden", "head"]

    def test_empty_dims(self):
        with pytest.raises(ConfigError):
            init_model([4], seed=0)

    def test_dimension_chain_enforced(self):
        layers = [Layer(np.zeros((3, 4)), np.zeros(3)),
                  Layer(np.zeros((2, 5)), np.zeros(2))]
        with pytest.raises(ShapeError):
            ModelParams(layers)


class TestForward:
    def test_identity_single_layer(self, np_rng):
        m = ModelParams([Layer(np.eye(4), np.zeros(4))])
        x = np_rng.normal(size=(6, 4))
        logits, features, _ = forward(m, x)
        assert np.array_equal(logits, x)
        assert np.array_equal(features, x)

    def test_zero_weights(self, np_rng):
        m = init_model([4, 5, 3], seed=0)
        for l in m.layers:
            l.weight[:] = 0.0
        logits, _, _ = forward(m, np_rng.normal(size=(2, 4)))
        assert np.array_equal(logits, np.zeros((2, 3)))

    def test_two_layer_hand_trace(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        w2 = np.array([[1.0, 1.0]])
        m = ModelParams([Layer(w1, np.array([0.0, -1.0])),
                         Layer(w2, np.array([0.5]))])
        x = np.array([[2.0, 1.0]])
        # z1 = [2*1 + 1*(-1), 2*0.5 + 1*2 - 1] = [1, 2]; relu -> [1, 2]
        # logits = 1 + 2 + 0.5 = 3.5
        logits, features, _ = forward(m, x)
        assert np.array_equal(features, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, np.array([[3.5]]))

    def test_deterministic(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(5, 4))
        a, _, _ = forward(m, x)
        b, _, _ = forward(m, x)
        assert np.array_equal(a, b)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            forward(small_model(), np.zeros((3, 9)))


class TestBackward:
    def test_zero_upstream(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, _, cache = forward(m, x)
        grads = backward(m, cache, GradientMaskSet.all_full(m), d_logits=np.zeros((4, 3)))
        assert all(np.all(g.weight == 0) and np.all(g.bias == 0) for g in grads.layers)

    def test_linear_squared_loss_closed_form(self, np_rng):
        w = np_rng.normal(size=(3, 4))
        m = ModelParams([Layer(w.copy(), np.zeros(3))])
        x = np_rng.normal(size=(5, 4))
        y = np_rng.normal(size=(5, 3))
        logits, _, cache = forward(m, x)
        grads = backward(m, cache, GradientMaskSet.all_full(m), d_logits=2.0 * (logits - y))
        expected = 2.0 * (x @ w.T - y).T @ x
        assert np.allclose(grads.layers[0].weight, expected, rtol=1e-12, atol=1e-12)

    def test_matches_finite_differences(self, np_rng):
        m = small_model(dims=(4, 6, 5, 3), seed=3)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        _, _, cache = forward(m, x)
        _, d_logits = cross_entropy(forward(m, x)[0], y)
        grads = backward(m, cache, GradientMaskSet.all_full(m), d_logits=d_logits)
        for li in range(len(m.layers)):
            def loss_of(wmat, li=li):
                probe = m.copy()
                probe.layers[li].weight = wmat
                return cross_entropy(forward(probe, x)[0], y)[0]
            fd = finite_diff_grad(loss_of, m.layers[li].weight, 1e-5)
            assert grad_rel_err(grads.layers[li].weight, fd) < 1e-4

    def test_feature_path_leaves_head_zero(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, features, cache = forward(m, x)
        grads = backward(m, cache, GradientMaskSet.all_full(m), d_features=np.ones_like(features))
        assert np.all(grads.layers[-1].weight == 0.0)
        assert np.any(grads.layers[0].weight != 0.0)

    def test_stale_cache(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, _, cache = forward(m, x)
        other = small_model(seed=99)
        with pytest.raises(StateError):
            backward(other, cache, GradientMaskSet.all_full(other), d_logits=np.zeros((4, 3)))


class TestCheckpoint:
    def test_round_trip_value_exact(self, tmp_path, np_rng):
        m = small_model(seed=21)
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.dims == m.dims
        for la, lb in zip(m.layers, loaded.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_header_line_is_pinned(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model([16, 32, 32, 4], seed=7), path)
        magic, header, _ = path.read_bytes().split(b"\n", 2)
        assert magic == b"masktune-checkpoint 1"
        assert header == b'{"dims": [16, 32, 32, 4], "roles": ["embedding", "hidden", "head"]}'

    @pytest.mark.parametrize("breakage", ["not_json", "role_missing", "hidden_first",
                                          "flat_weight", "nan_bias", "layers_not_list",
                                          "truncated", "trailing_bytes", "old_json"])
    def test_malformed_checkpoint_raises_input_error(self, tmp_path, breakage):
        path = tmp_path / "model.json"
        model = small_model(seed=21)
        save_checkpoint(model, path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        head = json.loads(header)
        if breakage == "role_missing":
            head["roles"].pop()
        elif breakage == "hidden_first":
            head["roles"][0] = "hidden"
        elif breakage == "flat_weight":
            head["dims"][1] = [head["dims"][1]]  # a width that is not a number: no 2-D weight
        elif breakage == "nan_bias":
            d = head["dims"]
            at = 8 * (d[1] * (d[0] + 1) + d[2] * d[1])  # layer 1's bias
            payload = payload[:at] + np.array([np.nan], "<f8").tobytes() + payload[at + 8:]
        elif breakage == "layers_not_list":
            head["dims"] = 3
        elif breakage == "truncated":
            payload = payload[:-1]
        elif breakage == "trailing_bytes":
            payload += bytes(8)
        blob = b"\n".join([magic, json.dumps(head).encode(), payload])
        if breakage == "not_json":
            blob = b"{"
        elif breakage == "old_json":
            blob = json.dumps({"dims": model.dims, "roles": layer_roles(len(model.layers)),
                               "layers": [{"weight": l.weight.tolist(), "bias": l.bias.tolist()}
                                          for l in model.layers]}, indent=1).encode()
        path.write_bytes(blob)
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_reinit_head(self):
        m = small_model(seed=4)
        fresh = reinit_head(m, 7, Rng(0))
        assert fresh.num_classes == 7
        assert np.array_equal(fresh.layers[0].weight, m.layers[0].weight)
        assert np.all(np.abs(fresh.layers[-1].weight) <= np.sqrt(1.0 / m.feature_dim))
