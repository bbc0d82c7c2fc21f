import numpy as np
import pytest

from conftest import (ROW_PATH_DIMS, frobenius_sq, oracle_scl_gradients, peak_bytes, read_masks,
                      small_model, sparse_from_bits, sparse_from_lists)
from masktune.errors import ConfigError, ShapeError
from masktune.losses import RegConfig, resolve_penalty
from masktune.masking import (
    GradientMaskSet,
    LayerMask,
    brute_force_best_rows,
    build_mask,
    col_scores,
    compute_mask_set,
    full_mask,
    mask_objective,
    retained_energy,
    row_scores,
    save_masks,
    scl_gradients,
    storage_comparison,
    topk_indices,
    trainable_fraction,
)
from masktune.model import forward, init_model
from masktune.optim import init_adam_state


H = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestScores:
    def test_row_zero(self):
        assert np.array_equal(row_scores(np.zeros((3, 4))), np.zeros(3))

    def test_row_identity(self):
        assert np.array_equal(row_scores(np.eye(3)), np.ones(3))

    def test_row_hand(self):
        assert np.array_equal(row_scores(H), np.array([5.0, 25.0]))

    def test_col_hand(self):
        assert np.array_equal(col_scores(H), np.array([10.0, 20.0]))

    def test_col_is_row_of_transpose(self, np_rng):
        h = np_rng.normal(size=(4, 6))
        assert np.array_equal(col_scores(h), row_scores(h.T))


class TestTopK:
    def test_hand(self):
        assert topk_indices(np.array([5.0, 25.0, 9.0]), 2).tolist() == [1, 2]

    def test_tie_lowest_index(self):
        assert topk_indices(np.array([7.0, 7.0, 7.0]), 1).tolist() == [0]

    def test_k_equals_len(self):
        assert topk_indices(np.array([3.0, 1.0, 2.0]), 3).tolist() == [0, 1, 2]

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            topk_indices(np.array([1.0]), 2)

    def test_each_row_of_a_matrix(self):
        got = topk_indices(np.array([[1.0, 3.0, 2.0], [5.0, 0.0, 5.0]]), 2)
        assert got.dtype == np.intp and got.tolist() == [[1, 2], [0, 2]]


class TestBuildMask:
    def test_row_hand(self):
        mask = build_mask(H, 1, "row")
        assert mask.index.tolist() == [1]
        assert np.array_equal(mask.to_dense(), np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_sparse_hand(self):
        h = np.array([[1.0, -5.0, 2.0], [0.0, 3.0, -1.0]])
        mask = build_mask(h, 1, "sparse")
        assert mask.index.tolist() == [[False, True, False], [False, True, False]]

    def test_row_k_equals_rows_is_full_effect(self, np_rng):
        h = np_rng.normal(size=(3, 4))
        mask = build_mask(h, 3, "row")
        assert np.array_equal(mask.to_dense(), np.ones((3, 4)))


class TestToDense:
    def test_full(self):
        assert np.array_equal(full_mask((2, 2)).to_dense(), np.ones((2, 2)))

    def test_row(self):
        mask = LayerMask("row", (2, 3), (0,))
        assert np.array_equal(mask.to_dense(), np.array([[1, 1, 1], [0, 0, 0]], dtype=float))

    def test_sparse(self):
        mask = sparse_from_lists((2, 3), ((1,), (1,)))
        assert np.array_equal(mask.to_dense(), np.array([[0, 1, 0], [0, 1, 0]], dtype=float))

    def test_invalid_indices_rejected(self):
        with pytest.raises(ConfigError):
            LayerMask("row", (2, 3), (1, 1))
        with pytest.raises(ConfigError):
            LayerMask("col", (2, 3), (3,))
        with pytest.raises(ConfigError):
            LayerMask("row", (2, 3), (1, 0))
        with pytest.raises(ConfigError):
            LayerMask("row", (2, 3), (-1,))
        with pytest.raises(ConfigError):
            LayerMask("row", (2, 3), (0.5,))

    def test_sparse_index_must_be_a_boolean_matrix_of_the_shape(self):
        for index in (np.ones((3, 2), dtype=bool), np.ones((2, 3)), ((1,), (1,)), None):
            with pytest.raises(ConfigError, match="boolean matrix"):
                LayerMask("sparse", (2, 3), index)


class TestReadOnlyIndex:
    """A mask's index is what segments, backward and Adam index with, so no
    write can retarget training: the mask keeps its own read-only copy."""

    @staticmethod
    def masks_and_inputs():
        rows = np.array([0, 2])
        cols = np.array([1, 3])
        bits = np.array([[True, False, True, False], [False, False, False, True],
                         [False, True, False, False]])
        masks = (LayerMask("row", (3, 4), rows), LayerMask("col", (3, 4), cols),
                 LayerMask("sparse", (3, 4), bits))
        return masks, (rows, cols, bits)

    def test_index_and_trainable_refuse_writes(self):
        masks, _ = self.masks_and_inputs()
        for mask in masks:
            with pytest.raises(ValueError):
                mask.index[0] = 1
            wi, bi = mask.trainable
            with pytest.raises(ValueError):
                (wi[1] if mask.variant == "col" else wi)[0] = 1
            if bi.size:
                with pytest.raises(ValueError):
                    bi[0] = 0

    def test_mutating_the_constructor_input_changes_nothing(self):
        masks, inputs = self.masks_and_inputs()
        before = [m.to_dense() for m in masks]
        segments = GradientMaskSet(masks).segments
        weight = np.arange(12.0).reshape(3, 4)
        selected = [weight[s.index] for s in segments[::2]]
        for a in inputs:
            a[...] = ~a if a.dtype == bool else 0
        assert all(np.array_equal(m.to_dense(), b) for m, b in zip(masks, before))
        assert all(np.array_equal(weight[s.index], w) for s, w in zip(segments[::2], selected))


class TestTrainableIndex:
    """The trainable index is the one place a variant turns into trainable
    entries; these pin it with hand-written arrays."""

    @staticmethod
    def assert_index(actual, expected):
        assert type(actual) is type(expected)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)
        else:
            assert actual == expected

    def test_row(self):
        wi, bi = LayerMask("row", (3, 2), (0, 2)).trainable
        self.assert_index(wi, np.array([0, 2], dtype=np.intp))
        self.assert_index(bi, np.array([0, 2], dtype=np.intp))

    def test_col_trains_no_bias(self):
        (rows, cols), bi = LayerMask("col", (2, 4), (1, 3)).trainable
        assert rows == slice(None)
        self.assert_index(cols, np.array([1, 3], dtype=np.intp))
        self.assert_index(bi, np.zeros(0, dtype=np.intp))

    def test_sparse_with_an_empty_row_freezes_its_bias(self):
        wi, bi = sparse_from_lists((3, 3), ((0, 2), (), (1,))).trainable
        self.assert_index(wi, np.array([[True, False, True],
                                        [False, False, False],
                                        [False, True, False]]))
        self.assert_index(bi, np.array([True, False, True]))

    def test_dense(self):
        bits = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        wi, bi = sparse_from_bits(bits).trainable
        self.assert_index(wi, np.array([[False, True], [False, False], [True, True]]))
        self.assert_index(bi, np.array([True, False, True]))

    def test_full(self):
        assert full_mask((2, 3)).trainable == (..., ...)

    def test_head_only_masks_train_nothing_but_the_head(self):
        masks = GradientMaskSet.head_only(init_model([4, 5, 3], seed=0))
        wi, bi = masks.layers[0].trainable
        self.assert_index(wi, np.zeros(0, dtype=np.intp))
        self.assert_index(bi, np.zeros(0, dtype=np.intp))
        assert masks.layers[1].trainable == (..., ...)

    def test_views_derive_from_the_index(self):
        mask = sparse_from_lists((3, 3), ((0, 2), (), (1,)))
        assert np.array_equal(mask.to_dense(), np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]], float))
        assert np.array_equal(np.arange(3)[mask.trainable[1]], [0, 2])
        assert np.arange(2)[LayerMask("col", (2, 3), (2,)).trainable[1]].size == 0


class TestObjectiveAndEnergy:
    def test_full_mask_objective_zero(self, np_rng):
        h = np_rng.normal(size=(3, 3))
        assert mask_objective(h, full_mask((3, 3))) == 0.0

    def test_empty_mask(self):
        empty = LayerMask("row", (2, 2), ())
        assert mask_objective(H, empty) == frobenius_sq(H)
        assert retained_energy(H, empty) == 0.0

    def test_hand_values(self):
        mask = LayerMask("row", (2, 2), (1,))
        assert mask_objective(H, mask) == 5.0
        assert retained_energy(H, mask) == 25.0

    def test_inner_product_identity(self, np_rng):
        for _ in range(100):
            h = np_rng.normal(size=(5, 6))
            m = (np_rng.uniform(size=(5, 6)) < 0.5).astype(float)
            mask = sparse_from_bits(m)
            inner = float(np.sum(h * (h * m)))
            energy = retained_energy(h, mask)
            assert abs(inner - energy) <= 1e-12 * max(abs(inner), 1e-300)

    def test_decomposition_all_variants(self, np_rng):
        h = np_rng.normal(size=(6, 5))
        total = frobenius_sq(h)
        for mask in (build_mask(h, 2, "row"), build_mask(h, 2, "col"),
                     build_mask(h, 2, "sparse"), full_mask(h.shape),
                     sparse_from_bits((np_rng.uniform(size=h.shape) < 0.5).astype(float))):
            s = retained_energy(h, mask) + mask_objective(h, mask)
            assert abs(s - total) <= 1e-12 * total

    def test_objective_monotone_in_k(self, np_rng):
        h = np_rng.normal(size=(7, 4))
        for variant in ("row", "sparse"):
            limit = 7 if variant == "row" else 4
            objs = [mask_objective(h, build_mask(h, k, variant)) for k in range(1, limit + 1)]
            assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mask_objective(H, full_mask((3, 3)))


class TestBruteForce:
    def test_hand(self):
        assert brute_force_best_rows(H, 1) == (1,)

    def test_identical_rows_tie(self):
        h = np.ones((4, 3))
        assert brute_force_best_rows(h, 2) == (0, 1)

    def test_k_equals_rows(self):
        assert brute_force_best_rows(H, 2) == (0, 1)

    def test_guard(self):
        with pytest.raises(ConfigError):
            brute_force_best_rows(np.zeros((21, 2)), 1)

    def test_selection_optimality(self, np_rng):
        for _ in range(40):
            rows = int(np_rng.integers(2, 9))
            cols = int(np_rng.integers(1, 9))
            h = np_rng.normal(size=(rows, cols))
            for k in range(1, rows + 1):
                fast = mask_objective(h, build_mask(h, k, "row"))
                best = mask_objective(h, LayerMask("row", h.shape, brute_force_best_rows(h, k)))
                assert abs(fast - best) <= 1e-12 * max(best, 1e-300)


class TestStorageBits:
    def test_dense_768(self):
        assert storage_comparison(LayerMask("row", (768, 768), (1, 2)), 2)["dense"] == 589824

    def test_row_768_k2(self):
        assert LayerMask("row", (768, 768), (1, 2)).storage_bits() == 20

    def test_sparse_768_k1(self):
        mask = sparse_from_lists((768, 768), tuple((0,) for _ in range(768)))
        assert mask.storage_bits() == 7680

    def test_full_free(self):
        assert full_mask((768, 768)).storage_bits() == 0

    def test_row_dominates(self, np_rng):
        rows, cols, k = 16, 64, 2
        row = LayerMask("row", (rows, cols), tuple(range(k)))
        sparse = sparse_from_lists((rows, cols), tuple(tuple(range(k)) for _ in range(rows)))
        assert row.storage_bits() < sparse.storage_bits() < storage_comparison(row, k)["dense"]


class TestMaskSet:
    def make_inputs(self, seed=2):
        model = init_model([4, 6, 5, 3], seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 4))
        y = rng.integers(0, 3, size=12)
        return model, x, y

    def test_head_full_and_k_rows_selected(self):
        model, x, y = self.make_inputs()
        masks = compute_mask_set(scl_gradients(model, x, y, 0.5), 2, "row")
        assert masks.layers[-1].variant == "full"
        assert all(len(m.index) == 2 for m in masks.layers[:-1])

    def test_deterministic(self):
        model, x, y = self.make_inputs()
        a = compute_mask_set(scl_gradients(model, x, y, 0.5), 2, "row")
        b = compute_mask_set(scl_gradients(model, x, y, 0.5), 2, "row")
        assert all(np.array_equal(ma.index, mb.index) for ma, mb in zip(a.layers[:-1], b.layers[:-1]))

    def test_matches_brute_force_per_layer(self):
        model, x, y = self.make_inputs(seed=3)
        masks = compute_mask_set(scl_gradients(model, x, y, 0.5), 2, "row")
        hs = scl_gradients(model, x, y, 0.5)
        for mask, h in zip(masks.layers[:-1], hs[:-1]):
            fast = mask_objective(h, mask)
            best = mask_objective(h, LayerMask("row", h.shape, brute_force_best_rows(h, 2)))
            assert abs(fast - best) <= 1e-12 * max(best, 1e-300)

    def test_k_full_rows_equals_full_effect(self):
        model, x, y = self.make_inputs()
        masks = compute_mask_set(scl_gradients(model, x, y, 0.5), 5, "row")
        # every maskable layer here has >= 5 rows only when all rows selected match
        for m, layer in zip(masks.layers[:-1], model.layers[:-1]):
            if layer.weight.shape[0] == 5:
                assert np.array_equal(m.to_dense(), np.ones(layer.weight.shape))

    def test_k_out_of_range_names_layer(self):
        model, x, y = self.make_inputs()
        with pytest.raises(ConfigError, match="layer"):
            compute_mask_set(scl_gradients(model, x, y, 0.5), 99, "row")

    def test_trainable_fraction_full(self):
        model, _, _ = self.make_inputs()
        assert trainable_fraction(model, GradientMaskSet.all_full(model)) == 1.0

    def test_trainable_fraction_head_only(self):
        model, _, _ = self.make_inputs()
        frac = trainable_fraction(model, GradientMaskSet.head_only(model))
        head = model.layers[-1]
        assert frac == (head.weight.size + head.bias.size) / model.param_count()

    def test_trainable_fraction_hand_count(self):
        model = init_model([4, 4, 4, 3], seed=0)
        x, y = np.random.default_rng(0).normal(size=(8, 4)), np.array([0, 0, 1, 1, 2, 2, 0, 1])
        masks = compute_mask_set(scl_gradients(model, x, y, 0.5), 1, "row")
        # two maskable layers: 1 row of 4 weights + 1 bias each; head 3x4 + 3 fully
        total = (16 + 4) + (16 + 4) + (12 + 3)
        assert trainable_fraction(model, masks) == (5 + 5 + 15) / total

    def test_scoring_peak_forms_the_first_delta_in_the_feature_gradient(self):
        # backprop's peak: layer 0's cached activation (the second delta is formed in
        # it), d_features (the features' own buffer, its first delta formed in place),
        # the gradient vector and one ReLU gate, layer 0's: the head input's gate is
        # dropped from the cache once read. The head input beside its gradient would add
        # one n x h array, and a gate kept beside the next one n x h bytes
        n, h = 300, 512
        model = init_model([64, h, h, 4], seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(n, 64)), rng.integers(0, 4, size=n)
        bound = 8 * (2 * n * h + model.param_count()) + n * h + 128 * 1024
        assert peak_bytes(lambda: scl_gradients(model, x, y, 0.5)) <= bound

    @pytest.mark.parametrize("dims", [[6, 3], [6, 8, 3], [6, 8, 7, 3], [6, 8, 7, 5, 3],
                                      ROW_PATH_DIMS])
    def test_scores_are_the_oracle_s_bitwise_and_x_is_only_read(self, dims):
        # a one-layer model's features are the caller's x, which must not take the gradient
        model = init_model(dims, seed=1)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(40, dims[0])), rng.integers(0, 3, size=40)
        before = x.tobytes()
        want = [h.tobytes() for h in oracle_scl_gradients(model, x, y, 0.5)]
        assert [h.tobytes() for h in scl_gradients(model, x, y, 0.5)] == want
        assert x.tobytes() == before
        if len(dims) >= 4:  # given layer 1's pre-activation, as selection writes it
            z1, _, _ = forward(model.layer_range(0, 2), x)
            assert [h.tobytes() for h in scl_gradients(model, x, y, 0.5, z1)] == want
            assert x.tobytes() == before

    def test_a_z1_that_does_not_fit_is_refused(self):
        model = init_model([6, 8, 7, 3], seed=1)
        x, y = np.ones((5, 6)), np.arange(5) % 3
        for z1 in (np.ones((4, 7)), np.ones((5, 8))):
            with pytest.raises(ShapeError):
                scl_gradients(model, x, y, 0.5, z1)
        with pytest.raises(ShapeError):
            scl_gradients(init_model([6, 8, 3], seed=1), x, y, 0.5, np.ones((5, 3)))

    @pytest.mark.parametrize("dims", [[4, 4, 3], [4, 5, 4, 3], [4, 4, 4, 3, 3]])
    def test_masks_of_another_model_are_refused(self, dims):
        model = init_model([4, 4, 4, 3], seed=0)
        other = GradientMaskSet.all_full(init_model(dims, seed=0))
        with pytest.raises(ShapeError):
            trainable_fraction(model, other)
        with pytest.raises(ShapeError):
            init_adam_state(model, other)
        with pytest.raises(ShapeError):
            resolve_penalty(model.layers, RegConfig(lam=0.1), other)


class TestPositions:
    @pytest.mark.parametrize("variant", ["row", "col", "sparse"])
    def test_built_in_memory_proportional_to_the_trainable_entries(self, variant):
        shape = (1000, 1000)  # a full-size position index would take 8 MB
        if variant == "sparse":
            mask = sparse_from_lists(shape, [(0, 500, 999)] * 1000)
        else:
            mask = LayerMask(variant, shape, (0, 500, 999))
        masks = GradientMaskSet((mask, full_mask((4, 1000))))
        assert peak_bytes(lambda: masks.positions) < 1 << 20
        assert masks.positions.shape == (masks.size,)

    def test_layer_offsets_follow_the_checkpoint_order(self):
        masks = GradientMaskSet((LayerMask("row", (3, 2), (1,)), LayerMask("col", (2, 3), (0, 2)),
                                 full_mask((1, 2))))
        # layer 0: weight [0, 6), bias [6, 9); layer 1: weight [9, 15), bias [15, 17); head
        assert masks.positions.tolist() == [2, 3, 7, 9, 11, 12, 14, 17, 18, 19]


class TestSerialization:
    def test_round_trip(self, tmp_path, np_rng):
        model = small_model()
        h = np_rng.normal(size=(6, 4))
        masks = GradientMaskSet((
            build_mask(h, 2, "row"),
            build_mask(np_rng.normal(size=(5, 6)), 3, "sparse"),
            full_mask((3, 5)),
        ))
        path = tmp_path / "masks.json"
        save_masks(masks, path)
        loaded = read_masks(path)
        for a, b in zip(masks.layers, loaded.layers):
            assert a.variant == b.variant
            assert a.shape == b.shape
            assert np.array_equal(a.to_dense(), b.to_dense())
        assert loaded.total_storage_bits() == masks.total_storage_bits()
