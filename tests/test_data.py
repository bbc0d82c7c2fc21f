import numpy as np
import pytest

from conftest import small_model
from masktune import data as data_module
from masktune import losses as losses_module
from masktune.data import (
    Dataset,
    ShiftConfig,
    gen_task,
    load_dataset_csv,
    partition_subsets,
    save_dataset_csv,
    select_mask_subset,
)
from masktune.errors import ConfigError, InputError
from masktune.losses import scl_loss
from masktune.model import Layer, ModelParams, forward


SHIFT = ShiftConfig(rotation_seed=11, magnitude=0.8)


class TestGenTask:
    def test_zero_shift_means_equal(self):
        task = gen_task(6, 3, 5, 0.0, ShiftConfig(11, 0.0), seed=1)
        by_class_src = {c: task.source.x[task.source.y == c][0] for c in range(3)}
        by_class_tgt = {c: task.target_train.x[task.target_train.y == c][0] for c in range(3)}
        for c in range(3):
            assert np.array_equal(by_class_src[c], by_class_tgt[c])

    def test_same_seed_bitwise_identical(self):
        a = gen_task(6, 3, 5, 0.2, SHIFT, seed=2)
        b = gen_task(6, 3, 5, 0.2, SHIFT, seed=2)
        assert np.array_equal(a.source.x, b.source.x)
        assert np.array_equal(a.target_train.x, b.target_train.x)
        assert np.array_equal(a.target_test.x, b.target_test.x)

    def test_each_set_is_drawn_on_first_read_from_its_own_stream(self):
        names = ("source", "target_train", "target_test")
        a, b = gen_task(6, 3, 5, 0.2, SHIFT, seed=2), gen_task(6, 3, 5, 0.2, SHIFT, seed=2)
        assert not any(name in vars(a) for name in names)
        b.target_test  # b draws its test set alone first, then the rest in reverse order
        assert [name in vars(b) for name in names] == [False, False, True]
        for name in reversed(names):
            getattr(b, name)
        for name in names:
            assert np.array_equal(getattr(a, name).x, getattr(b, name).x)

    def test_zero_noise_samples_on_means(self):
        task = gen_task(6, 3, 4, 0.0, SHIFT, seed=3)
        for c in range(3):
            rows = task.source.x[task.source.y == c]
            assert np.all(rows == rows[0])

    def test_shift_is_rigid(self):
        # target means keep unit norm up to the offset: rotation is orthogonal
        plain = gen_task(8, 4, 3, 0.0, ShiftConfig(5, 0.0), seed=4)
        shifted = gen_task(8, 4, 3, 0.0, ShiftConfig(5, 0.7), seed=4)
        src_means = np.stack([plain.source.x[plain.source.y == c][0] for c in range(4)])
        tgt_means = np.stack([shifted.target_train.x[shifted.target_train.y == c][0]
                              for c in range(4)])
        assert not np.allclose(src_means, tgt_means)
        # pairwise distances between rotated means are preserved before the offset
        assert np.allclose(np.linalg.norm(src_means, axis=1), 1.0)

    def test_degenerate_config(self):
        with pytest.raises(ConfigError):
            gen_task(6, 1, 5, 0.1, SHIFT, seed=0)
        with pytest.raises(ConfigError):
            gen_task(6, 3, 1, 0.1, SHIFT, seed=0)


class TestPartition:
    def make_data(self, n=103):
        rng = np.random.default_rng(0)
        return Dataset(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n), 3)

    def test_single_subset_is_whole(self):
        data = self.make_data(10)
        parts = partition_subsets(data, 1, seed=0)
        assert len(parts) == 1
        assert sorted(parts[0]) == list(range(10))

    def test_balanced_sizes(self):
        parts = partition_subsets(self.make_data(103), 4, seed=1)
        assert sorted(len(p) for p in parts) == [25, 26, 26, 26]

    def test_union_is_every_row_once(self):
        data = self.make_data(30)
        parts = partition_subsets(data, 4, seed=2)
        assert sorted(np.concatenate(parts)) == list(range(30))

    def test_singletons(self):
        data = self.make_data(6)
        parts = partition_subsets(data, 6, seed=3)
        assert all(len(p) == 1 for p in parts)

    def test_deterministic(self):
        data = self.make_data(20)
        a = partition_subsets(data, 3, seed=4)
        b = partition_subsets(data, 3, seed=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            partition_subsets(self.make_data(5), 6, seed=0)


def dense_subset_losses(model, data, subsets, tau=0.5):
    """Each subset's per-sample contrastive loss from the dense forward of its rows."""
    losses = []
    for s in subsets:
        _, feats, _ = forward(model, data.x[s])
        losses.append(scl_loss(feats, data.y[s], tau)[0] / len(s))
    return losses


class TestSelectSubset:
    def test_single_subset(self):
        model = small_model()
        data = Dataset(np.random.default_rng(0).normal(size=(8, 4)),
                       np.array([0, 0, 1, 1, 2, 2, 0, 1]), 3)
        idx, chosen = select_mask_subset(model, data, [np.arange(8)], 0.5)
        assert idx == 0
        assert np.array_equal(chosen.x, data.x) and np.array_equal(chosen.y, data.y)

    def test_picks_minimum_and_ties_low(self):
        model = small_model()
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(24, 4)), rng.integers(0, 3, size=24), 3)
        subsets = partition_subsets(data, 4, seed=1)
        idx, chosen = select_mask_subset(model, data, subsets, 0.5)
        losses = dense_subset_losses(model, data, subsets)
        assert losses[idx] <= min(losses)
        assert idx == int(np.argmin(losses))
        assert np.array_equal(chosen.x, data.x[subsets[idx]])

    def test_tied_subsets_pick_first(self):
        model = small_model()
        data = Dataset(np.random.default_rng(2).normal(size=(6, 4)),
                       np.array([0, 0, 1, 1, 2, 2]), 3)
        idx, _ = select_mask_subset(model, data, [np.arange(6), np.arange(6)], 0.5)
        assert idx == 0

    @pytest.mark.parametrize("dims", [[4, 7, 5, 3], [4, 7, 5, 6, 3]])
    def test_z1_out_holds_layer_1_and_the_choice_is_the_dense_one(self, dims):
        # the forward split after layer 1 gives the dense losses bit for bit, on a
        # 3-layer model (features are ReLU(z1)) and a deeper one alike
        rng = np.random.default_rng(3)
        model = ModelParams.from_layers([Layer(rng.normal(size=(n_out, n_in)),
                                               rng.uniform(0.5, 1.0, size=n_out))
                                         for n_in, n_out in zip(dims, dims[1:])])
        data = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30), 3)
        subsets = partition_subsets(data, 3, seed=5)
        z1_out = np.full((30, dims[2]), np.nan)
        idx, chosen = select_mask_subset(model, data, subsets, 0.5, z1_out)
        losses = dense_subset_losses(model, data, subsets)
        assert idx == int(np.argmin(losses))
        assert (idx, chosen.x.tobytes()) == (select_mask_subset(model, data, subsets, 0.5)[0],
                                             data.x[subsets[idx]].tobytes())
        z1, _, _ = forward(ModelParams.from_layers(model.layers[:2]), data.x)
        assert np.allclose(z1_out, z1, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("dims, with_z1", [([4, 3], False), ([4, 7, 3], False),
                                               ([4, 7, 5, 3], False), ([4, 7, 5, 3], True),
                                               ([4, 7, 5, 6, 3], True)])
    def test_the_losses_are_the_dense_losses_bitwise_from_the_loss_pass_alone(
            self, monkeypatch, dims, with_z1):
        rng = np.random.default_rng(3)
        model = ModelParams.from_layers([Layer(rng.normal(size=(n_out, n_in)),
                                               rng.uniform(0.5, 1.0, size=n_out))
                                         for n_in, n_out in zip(dims, dims[1:])])
        data = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30), 3)
        subsets = partition_subsets(data, 3, seed=6)
        seen, loss_pass = [], data_module.scl_loss_pass

        def recorded(features, labels, tau):
            state = loss_pass(features, labels, tau)
            seen.append(state.loss / len(labels))
            return state

        monkeypatch.setattr(data_module, "scl_loss_pass", recorded)
        monkeypatch.setattr(losses_module, "scl_grad_pass", None)  # no gradient is formed
        z1_out = np.empty((30, dims[2])) if with_z1 else None
        select_mask_subset(model, data, subsets, 0.5, z1_out)
        monkeypatch.undo()
        assert seen == dense_subset_losses(model, data, subsets)


class TestCsv:
    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(9, 3)), rng.integers(0, 4, size=9), 4)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.y, data.y)
        assert loaded.num_classes == 4

    @pytest.mark.parametrize("text", ["", "x0,y\n0,1.0\n", "y,x0,x1\n0,1.0\n",
                                      "y,x0\n0,nan\n", "y,x0\none,1.0\n",
                                      "y,x0,x1\n", "y,x0\n0,1.0\n\n1,2.0\n",
                                      "y,x0\n1.5,1.0\n", "y,x0\n0,#\n"])
    def test_malformed_csv_raises_input_error(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(InputError):
            load_dataset_csv(path)
