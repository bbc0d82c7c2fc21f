import json

import numpy as np
import pytest

from masktune.data import Dataset, ShiftConfig, gen_task
from masktune.errors import ConfigError, ShapeError
from masktune.harness import (
    ABLATION_AXES,
    FineTuneConfig,
    ablate,
    evaluate,
    finetune,
    finetune_masks,
    linear_probe,
    pretrain,
    sweep_configs,
    write_report_csv,
    write_report_json,
)
from masktune.losses import RegConfig, RegularSet
from masktune.model import Layer, ModelParams, init_model
from masktune.optim import OptimConfig


DIMS = [6, 12, 12, 3]
SHIFT = ShiftConfig(rotation_seed=7, magnitude=0.6)


def make_task(seed=0, per_class=12, noise=0.15):
    return gen_task(6, 3, per_class, noise, SHIFT, seed=seed)


def make_cfg(**overrides):
    base = dict(
        k=2,
        variant="row",
        reg=RegConfig(lam=0.01, norm="l2", regular=RegularSet(1)),
        tau=0.5,
        subsets_n=2,
        optim=OptimConfig(base_lr=0.02, total_epochs=6, warmup_epochs=1),
        batch_size=12,
        seed=3,
    )
    base.update(overrides)
    return FineTuneConfig(**base)


class TestEvaluate:
    def test_perfect_identity_model(self):
        model = ModelParams([Layer(np.eye(3), np.zeros(3))])
        data = Dataset(np.eye(3) * 5.0, np.array([0, 1, 2]), 3)
        assert evaluate(model, data) == 1.0

    def test_all_wrong(self):
        model = ModelParams([Layer(-np.eye(2), np.zeros(2))])
        data = Dataset(np.eye(2), np.array([0, 1]), 2)
        assert evaluate(model, data) == 0.0

    def test_random_model_near_chance(self):
        model = init_model([6, 4], seed=0)
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(2000, 6)), rng.integers(0, 4, size=2000), 4)
        assert abs(evaluate(model, data) - 0.25) < 0.05

    def test_class_count_mismatch(self):
        model = init_model([6, 4], seed=0)
        data = Dataset(np.zeros((2, 6)), np.array([0, 1]), 3)
        with pytest.raises(ShapeError):
            evaluate(model, data)


class TestPretrain:
    def test_deterministic(self):
        task = make_task()
        optim = OptimConfig(base_lr=0.02, total_epochs=4, warmup_epochs=1)
        a = pretrain(task, DIMS, optim, seed=5)
        b = pretrain(task, DIMS, optim, seed=5)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_fits_separable_source(self):
        task = gen_task(6, 3, 40, 0.05, SHIFT, seed=1)
        optim = OptimConfig(base_lr=0.05, total_epochs=30, warmup_epochs=2)
        model = pretrain(task, DIMS, optim, seed=2)
        assert evaluate(model, task.source) >= 0.95


@pytest.fixture(scope="module")
def pre_and_task():
    task = make_task(seed=1, per_class=16, noise=0.12)
    optim = OptimConfig(base_lr=0.05, total_epochs=20, warmup_epochs=2)
    return pretrain(task, DIMS, optim, seed=2), task


class TestFinetune:
    def test_deterministic_trajectory(self, pre_and_task):
        pre, task = pre_and_task
        cfg = make_cfg()
        model_a, rep_a = finetune(pre, task, cfg)
        model_b, rep_b = finetune(pre, task, cfg)
        for la, lb in zip(model_a.layers, model_b.layers):
            assert np.array_equal(la.weight, lb.weight)
        assert rep_a.final_accuracy == rep_b.final_accuracy
        assert [e.loss_r for e in rep_a.epochs] == [e.loss_r for e in rep_b.epochs]

    def test_frozen_rows_bitwise_unchanged(self, pre_and_task):
        pre, task = pre_and_task
        cfg = make_cfg(k=1)
        _, masks = finetune_masks(pre, task, cfg)
        model, _ = finetune(pre, task, cfg)
        for li in range(len(pre.layers) - 1):
            dense = masks.layers[li].to_dense()
            frozen = dense[:, 0] == 0.0  # row variant: whole rows frozen
            assert np.array_equal(model.layers[li].weight[frozen],
                                  pre.layers[li].weight[frozen])
            assert np.array_equal(model.layers[li].bias[frozen],
                                  pre.layers[li].bias[frozen])

    def test_report_bookkeeping(self, pre_and_task):
        pre, task = pre_and_task
        cfg = make_cfg()
        _, report = finetune(pre, task, cfg)
        assert len(report.epochs) == cfg.optim.total_epochs
        assert 0.0 <= report.final_accuracy <= 1.0
        assert report.final_accuracy == report.epochs[-1].test_accuracy
        assert 0.0 < report.trainable_fraction < 1.0
        assert report.storage_bits == finetune_masks(pre, task, cfg)[1].total_storage_bits()
        assert 0 <= report.mask_subset_index < cfg.subsets_n
        assert report.epochs[cfg.optim.warmup_epochs].lr == cfg.optim.base_lr
        assert report.config["k"] == cfg.k

    @pytest.mark.parametrize("variant", ["row", "col", "sparse", "full"])
    def test_optimizer_state_covers_the_trainable_slice(self, pre_and_task, variant):
        pre, task = pre_and_task
        model, report = finetune(pre, task, make_cfg(variant=variant))
        trainable = round(report.trainable_fraction * model.param_count())
        assert report.optimizer_state_bytes == 2 * 8 * trainable  # m and v, float64
        assert report.to_dict()["optimizer_state_bytes"] == report.optimizer_state_bytes

    def test_full_variant_trains_everything(self, pre_and_task):
        pre, task = pre_and_task
        _, report = finetune(pre, task, make_cfg(variant="full", k=1))
        assert report.trainable_fraction == 1.0
        assert report.storage_bits == 0

    def test_strong_pull_shrinks_distances(self, pre_and_task):
        pre, task = pre_and_task
        regular = RegularSet(1, include_embedding=True, include_head=False)
        free = make_cfg(reg=RegConfig(lam=0.0, norm="l2", regular=regular))
        pulled = make_cfg(reg=RegConfig(lam=100.0, norm="l2", regular=regular))
        _, rep_free = finetune(pre, task, free)
        _, rep_pulled = finetune(pre, task, pulled)
        for li in range(len(pre.layers) - 1):
            if rep_free.weight_distances[li] > 0:
                assert rep_pulled.weight_distances[li] < rep_free.weight_distances[li]


class TestLinearProbe:
    def test_only_head_moves(self, pre_and_task):
        pre, task = pre_and_task
        model, report = linear_probe(pre, task, make_cfg())
        for li in range(len(pre.layers) - 1):
            assert np.array_equal(model.layers[li].weight, pre.layers[li].weight)
            assert np.array_equal(model.layers[li].bias, pre.layers[li].bias)
        head = pre.layers[-1]
        expected = (head.weight.size + head.bias.size) / pre.param_count()
        assert report.trainable_fraction == expected


class TestAblate:
    def test_k_sweep(self, pre_and_task):
        pre, task = pre_and_task
        reports = ablate(pre, task, sweep_configs(pre, task, make_cfg(), "k", [1, 2, 4]))
        assert [r.config["k"] for r in reports] == [1, 2, 4]
        fracs = [r.trainable_fraction for r in reports]
        assert fracs == sorted(fracs)

    def test_lambda_axis_updates_config(self, pre_and_task):
        pre, task = pre_and_task
        reports = ablate(pre, task, sweep_configs(pre, task, make_cfg(), "lambda", [0.0, 1.0]))
        assert [r.config["reg"]["lam"] for r in reports] == [0.0, 1.0]

    def test_axes_and_errors(self, pre_and_task):
        pre, task = pre_and_task
        assert "variant" in ABLATION_AXES
        with pytest.raises(ConfigError):
            ablate(pre, task, sweep_configs(pre, task, make_cfg(), "nope", [1]))
        with pytest.raises(ConfigError):
            ablate(pre, task, sweep_configs(pre, task, make_cfg(), "k", []))


class TestReportFiles:
    def test_json_and_csv(self, pre_and_task, tmp_path):
        pre, task = pre_and_task
        _, report = finetune(pre, task, make_cfg())
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        write_report_json(report, jpath)
        write_report_csv(report, cpath)
        doc = json.loads(jpath.read_text())
        assert doc["final_accuracy"] == report.final_accuracy
        assert len(doc["epochs"]) == len(report.epochs)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss_R,ce_loss,test_acc"
        assert len(lines) == 1 + len(report.epochs)
        # values written with round-trip precision
        assert float(lines[-1].split(",")[4]) == report.final_accuracy


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            make_cfg(variant="rows")

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            make_cfg(tau=-1.0)

    def test_bad_batch(self):
        with pytest.raises(ConfigError):
            make_cfg(batch_size=0)
