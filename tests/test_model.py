import json

import numpy as np
import pytest

from conftest import (copy_model, finite_diff_grad, grad_rel_err, layer_grads, peak_bytes,
                      small_model)
from masktune.errors import ConfigError, InputError, ShapeError, StateError
from masktune.linalg import Rng
from masktune.losses import cross_entropy
from masktune.masking import GradientMaskSet
from masktune.model import (
    Layer,
    ModelParams,
    _trained_columns,
    backward,
    forward,
    init_model,
    layer_roles,
    load_checkpoint,
    reinit_head,
    row_anchor,
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
            ModelParams.from_layers(layers)


class TestForward:
    def test_identity_single_layer(self, np_rng):
        m = ModelParams.from_layers([Layer(np.eye(4), np.zeros(4))])
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
        m = ModelParams.from_layers([Layer(w1, np.array([0.0, -1.0])),
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

    def test_a_row_anchor_that_does_not_fit_the_batch_or_the_model_raises(self, np_rng):
        pre = small_model()  # [4, 6, 5, 3]
        x = np_rng.normal(size=(7, 4))
        rows = (np.array([0, 2]), np.array([1]))
        model = reinit_head(pre, 3, Rng(0), rows)
        anchor = row_anchor(pre, x, keep=True)
        assert (anchor.z1.shape, anchor.a0_whole.shape) == ((7, 5), (7, 6))
        forward(model, x[:3], anchor.take(slice(0, 3)))
        forward(model, x[:3], anchor.take(slice(0, 3))._replace(a0_whole=None))
        with pytest.raises(ShapeError):
            forward(model, x[:3], anchor.take(slice(0, 4)))
        for wrong in (anchor._replace(z1=anchor.z1[:, :4]),
                      anchor._replace(a0_whole=anchor.a0_whole[:, :5])):
            with pytest.raises(ShapeError):
                forward(model, x, wrong)
        with pytest.raises(StateError):  # the row path forwards a RowParams
            forward(pre, x, anchor)
        with pytest.raises(StateError):  # and a RowParams only on the row path
            forward(model, x)
        with pytest.raises(ShapeError):  # layer 1 is the head: no row path
            reinit_head(small_model(dims=(4, 5, 3)), 3, Rng(0), rows)

    @pytest.mark.parametrize("rows0", [[3], [0, 4], []])
    def test_row_anchor_from_a_given_z1_is_the_one_it_computes(self, np_rng, rows0):
        # one trained row included: its product must not round apart from the dense forward's
        model = init_model([4, 6, 5, 3], seed=1)
        model.params[...] = np_rng.normal(size=model.params.shape)
        x, rows0 = np_rng.normal(size=(7, 4)), np.array(rows0, dtype=np.intp)
        want = row_anchor(model, x, keep=True)
        z1, a0, _ = forward(model.layer_range(0, 2), x)
        layer = model.layers[0]
        trained = _trained_columns(x, Layer(layer.weight[rows0], layer.bias[rows0]))
        assert want.z1.tobytes() == z1.tobytes() and trained.tobytes() == a0[:, rows0].tobytes()
        assert want.a0_whole.tobytes() == a0.tobytes()  # the forward's, kept
        unkept = row_anchor(model, x)
        assert unkept.a0_whole is None and unkept.z1.tobytes() == want.z1.tobytes()
        given = z1.copy()
        got = row_anchor(model, x, given)
        assert got.z1 is given and got.a0_whole is None
        assert got.z1.tobytes() == want.z1.tobytes()
        for wrong in (given[:, :-1], given[:-1]):
            with pytest.raises(ShapeError):
                row_anchor(model, x, wrong)
        with pytest.raises(ShapeError):  # a given z1 comes from a forward that kept nothing
            row_anchor(model, x, given, keep=True)

    def test_layer_range_views_its_layers(self):
        model = init_model([4, 6, 5, 7, 3], seed=2)
        for start, stop in [(0, 2), (2, 4), (1, 3), (0, 4)]:
            part = model.layer_range(start, stop)
            assert part.dims == model.dims[start:stop + 1]
            assert np.shares_memory(part.params, model.params)
            for got, want in zip(part.layers, model.layers[start:stop]):
                assert np.array_equal(got.weight, want.weight)
                assert np.array_equal(got.bias, want.bias)

    def test_allocates_one_activation_per_layer(self, np_rng):
        model = init_model([256, 768, 768, 10], seed=0)
        x = np_rng.normal(size=(1000, 256))
        out = []
        peak = peak_bytes(lambda: out.append(forward(model, x)))
        logits, _, cache = out[0]
        returned = logits.nbytes + sum(a.nbytes for a in cache.inputs[1:])
        # a broadcast add (the bias) allocates one ufunc buffer of up to
        # np.getbufsize() entries; the 64 KiB covers the small objects
        assert peak <= returned + 8 * np.getbufsize() + 64 * 1024


class TestBackward:
    def test_zero_upstream(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, _, cache = forward(m, x)
        grad = backward(m, cache, GradientMaskSet.all_full(m), d_logits=np.zeros((4, 3)))
        assert grad.shape == (m.param_count(),) and np.all(grad == 0)

    def test_linear_squared_loss_closed_form(self, np_rng):
        w = np_rng.normal(size=(3, 4))
        m = ModelParams.from_layers([Layer(w.copy(), np.zeros(3))])
        x = np_rng.normal(size=(5, 4))
        y = np_rng.normal(size=(5, 3))
        logits, _, cache = forward(m, x)
        masks = GradientMaskSet.all_full(m)
        grads = layer_grads(masks, backward(m, cache, masks, d_logits=2.0 * (logits - y)))
        expected = 2.0 * (x @ w.T - y).T @ x
        assert np.allclose(grads[0][0], expected, rtol=1e-12, atol=1e-12)

    def test_matches_finite_differences(self, np_rng):
        m = small_model(dims=(4, 6, 5, 3), seed=3)
        x = np_rng.normal(size=(6, 4))
        y = np_rng.integers(0, 3, size=6)
        _, _, cache = forward(m, x)
        _, d_logits = cross_entropy(forward(m, x)[0], y)
        masks = GradientMaskSet.all_full(m)
        grads = layer_grads(masks, backward(m, cache, masks, d_logits=d_logits))
        for li in range(len(m.layers)):
            def loss_of(wmat, li=li):
                probe = copy_model(m)
                probe.layers[li].weight[...] = wmat
                return cross_entropy(forward(probe, x)[0], y)[0]
            fd = finite_diff_grad(loss_of, m.layers[li].weight, 1e-5)
            assert grad_rel_err(grads[li][0], fd) < 1e-4

    def test_feature_path_leaves_head_zero(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, features, cache = forward(m, x)
        masks = GradientMaskSet.all_full(m)
        grads = layer_grads(masks, backward(m, cache, masks, d_features=np.ones_like(features)))
        assert np.all(grads[-1][0] == 0.0) and np.all(grads[-1][1] == 0.0)
        assert np.any(grads[0][0] != 0.0)

    def test_stale_cache(self, np_rng):
        m = small_model()
        x = np_rng.normal(size=(4, 4))
        _, _, cache = forward(m, x)
        other = small_model(seed=99)
        with pytest.raises(StateError):
            backward(other, cache, GradientMaskSet.all_full(other), d_logits=np.zeros((4, 3)))

    @pytest.mark.parametrize("out", [np.empty(10), np.empty(83, dtype=np.float32),
                                     np.empty(166)[::2]], ids=["short", "float32", "strided"])
    def test_a_vector_that_is_not_the_layout_s_is_refused(self, np_rng, out):
        m = small_model()  # 83 parameters, all trainable
        _, _, cache = forward(m, np_rng.normal(size=(4, 4)))
        with pytest.raises(ShapeError):
            backward(m, cache, GradientMaskSet.all_full(m), d_logits=np.zeros((4, 3)), out=out)


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

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_error_names_the_first_bad_layer(self, tmp_path, bad):
        model = small_model(seed=21)
        model.layers[bad].weight[0, -1] = np.nan
        for layer in model.layers[bad + 1:]:
            layer.bias[0] = np.inf
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(InputError, match=f"layer {bad} has non-finite entries"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rows", [([1, 4], [0, 2]), ([3], [4]), ([], [])])
    def test_reinit_head_on_the_row_path_copies_the_trained_rows_alone(self, rows):
        m = small_model(dims=(4, 6, 5, 7, 3), seed=4)
        before = m.params.tobytes()
        rows = tuple(np.array(r, dtype=np.intp) for r in rows)
        held = reinit_head(m, 2, Rng(0), rows)
        whole = reinit_head(m, 2, Rng(0))
        assert held.dims == whole.dims == [4, 6, 5, 7, 2]
        assert held.params.size == whole.params.size - sum(
            (l.out_dim - len(r)) * (l.in_dim + 1) for l, r in zip(m.layers, rows))
        for got, layer, r in zip(held.layers, m.layers, rows):
            assert got.weight.tobytes() == layer.weight[r].tobytes()
            assert got.bias.tobytes() == layer.bias[r].tobytes()
        assert not np.shares_memory(held.params, m.params)
        # written out whole, it is the copy reinit_head draws off the row path, bit for bit
        out = held.to_model()
        assert out.params.tobytes() == whole.params.tobytes() and m.params.tobytes() == before
        assert not np.shares_memory(out.params, m.params)
        held.layers[1].weight[...] += 1.0
        columns = held.w1_columns()
        assert columns.tobytes() == held.to_model().layers[1].weight[:, rows[0]].tobytes()
        assert m.params.tobytes() == before

    def test_reinit_head(self):
        m = small_model(seed=4)
        fresh = reinit_head(m, 7, Rng(0))
        assert fresh.num_classes == 7
        assert np.array_equal(fresh.layers[0].weight, m.layers[0].weight)
        for got, old in zip(fresh.layers[:-1], m.layers[:-1]):  # copies, in one fresh vector
            assert got.weight.tobytes() == old.weight.tobytes()
            assert got.bias.tobytes() == old.bias.tobytes()
        assert not np.shares_memory(fresh.params, m.params)
        assert np.all(np.abs(fresh.layers[-1].weight) <= np.sqrt(1.0 / m.feature_dim))
