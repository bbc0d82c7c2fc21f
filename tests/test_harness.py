import importlib.util
import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ROW_PATH_DIMS, oracle_finetune_with_masks, oracle_scl_gradients, peak_bytes
from masktune import data as data_module
from masktune import harness, masking
from masktune import model as model_module
from masktune.data import Dataset, ShiftConfig, gen_task, partition_subsets, select_mask_subset
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
from masktune.linalg import Rng
from masktune.losses import RegConfig, RegularSet
from masktune.masking import masks_to_doc
from masktune.model import Layer, ModelParams, init_model, row_anchor
from masktune.optim import OptimConfig, masked_adam_step


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


def param_bytes(model):
    """Every weight and bias of a model, as bytes, layer by layer."""
    return [(l.weight.tobytes(), l.bias.tobytes()) for l in model.layers]


def shares_any_array(a, b):
    """Whether any weight or bias of model ``a`` shares memory with one of model ``b``."""
    arrays_b = [x for l in b.layers for x in (l.weight, l.bias)]
    return any(np.shares_memory(x, y) for l in a.layers for x in (l.weight, l.bias)
               for y in arrays_b)


def wide_peaks_over_model_bytes(run, monkeypatch):
    """Peak bytes of ``run(pre, task, cfg)`` on a [8, 256, 256, 3] model with a row k=2
    mask, which takes the row path, over the model's bytes: of the whole run, which
    holds ``pre`` and at its end one trained copy, and of its training, from the new
    head's draw to the last evaluation, which holds the trained rows of layers 0 and 1
    alone and one anchor at a time."""
    pre = init_model([8, 256, 256, 3], seed=2)
    task = gen_task(8, 3, 12, 0.15, SHIFT, seed=1)
    cfg = make_cfg(optim=OptimConfig(base_lr=0.02, total_epochs=2, warmup_epochs=0))
    model_bytes = sum(l.weight.nbytes + l.bias.nbytes for l in pre.layers)
    peaks = []  # the peak up to the new head, up to each evaluation's end, up to the end

    def marked(func):
        def call(*args):
            result = func(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return result
        return call

    for name in ("reinit_head", "evaluate"):
        monkeypatch.setattr(harness, name, marked(getattr(harness, name)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(pre, task, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 + cfg.optim.total_epochs
    return (max(peaks) - before) / model_bytes, (max(peaks[1:-1]) - before) / model_bytes


class TestEvaluate:
    def test_perfect_identity_model(self):
        model = ModelParams.from_layers([Layer(np.eye(3), np.zeros(3))])
        data = Dataset(np.eye(3) * 5.0, np.array([0, 1, 2]), 3)
        assert evaluate(model, data) == 1.0

    def test_all_wrong(self):
        model = ModelParams.from_layers([Layer(-np.eye(2), np.zeros(2))])
        data = Dataset(np.eye(2), np.array([0, 1]), 2)
        assert evaluate(model, data) == 0.0

    def test_random_model_near_chance(self):
        model = init_model([6, 4], seed=0)
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(2000, 6)), rng.integers(0, 4, size=2000), 4)
        assert abs(evaluate(model, data) - 0.25) < 0.05

    @pytest.mark.parametrize("dims, samples, chunks", [([8, 768, 768, 3], 200, 5),
                                                       ([16, 32, 32, 4], 200, 1)])
    def test_chunked_evaluation_is_the_argmax_of_one_dense_forward(self, dims, samples, chunks):
        # 32,768 // 768 = 42 rows per chunk on the wide model; the reference config is one chunk
        model = init_model(dims, seed=4)
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(samples, dims[0])),
                       rng.integers(0, dims[-1], size=samples), dims[-1])
        assert len(list(model_module.row_chunks(samples, max(dims)))) == chunks
        logits, _, _ = model_module.forward(model, data.x)
        assert evaluate(model, data) == float(np.mean(np.argmax(logits, axis=1) == data.y))

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


class TestOneGradientVector:
    @pytest.mark.parametrize("run", ["pretrain", "finetune", "linear_probe"])
    def test_every_step_of_a_run_gets_the_same_vector(self, monkeypatch, pre_and_task, run):
        vectors = []

        def recording_step(model, state, grad, masks, lr, cfg, views):
            vectors.append(grad)
            return masked_adam_step(model, state, grad, masks, lr, cfg, views)

        monkeypatch.setattr(harness, "masked_adam_step", recording_step)
        pre, task = pre_and_task
        if run == "pretrain":
            pretrain(task, DIMS, OptimConfig(base_lr=0.02, total_epochs=3), seed=5)
        else:
            getattr(harness, run)(pre, task, make_cfg())
        assert len(vectors) > 3 and all(grad is vectors[0] for grad in vectors)

    def test_pretrain_peak_holds_the_model_adam_and_one_gradient_vector(self):
        # model, m, v and one gradient vector are 4x; a second vector would make 5x
        dims = [8, 512, 512, 3]
        task = gen_task(8, 3, 12, 0.15, SHIFT, seed=1)
        optim = OptimConfig(base_lr=0.02, total_epochs=2, warmup_epochs=0)
        model_bytes = init_model(dims, 0).params.nbytes
        assert peak_bytes(lambda: pretrain(task, dims, optim, seed=2)) <= 4.5 * model_bytes


def bench_tracer():
    """A fresh ``Tracer`` of the bench's ``spans`` module, which wraps each traced function
    through every package module attribute that binds it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


class TestPhaseAttribution:
    """The bench's ``--trace 1`` breakdown locates a step's time through the module
    attributes it patches: every step must call each phase once through them."""

    PHASES = ["model.forward", "losses.cross_entropy", "model.backward", "losses.reg_penalty"]

    @pytest.mark.parametrize("run", ["pretrain", "finetune", "row-path finetune"])
    def test_each_step_calls_each_phase_once_through_its_module_attribute(self, pre_and_task,
                                                                          run):
        pre, task = pre_and_task
        cfg = make_cfg()
        if run == "row-path finetune":
            task, pre = make_task(seed=1, per_class=16, noise=0.12), init_model(ROW_PATH_DIMS, 2)
            assert harness._row_path(pre, cfg.variant)
        optim = OptimConfig(base_lr=0.02, total_epochs=3) if run == "pretrain" else cfg.optim
        train = task.source if run == "pretrain" else task.target_train
        tracer = bench_tracer()
        tracer.install()
        try:
            if run == "pretrain":
                pretrain(task, DIMS, optim, seed=5, batch_size=cfg.batch_size)
            else:
                finetune(pre, task, cfg)
        finally:
            tracer.uninstall()
        assert tracer.absent == []  # every function the bench traces still exists
        children = {}
        for _, name, start, _, parent, _ in tracer.spans:
            children.setdefault(parent, []).append((start, name))
        steps = [s for s in tracer.spans if s[1] == "losses.combined_grad"]
        adam = [s for s in tracer.spans if s[1] == "optim.masked_adam_step"]
        want = optim.total_epochs * -(-len(train) // cfg.batch_size)
        assert len(steps) == len(adam) == want
        for sid, *_ in steps:
            assert [name for _, name in sorted(children[sid])] == self.PHASES
        assert all(s[4] == steps[0][4] for s in steps + adam)  # both called by the run itself


class TestLazyTask:
    def test_pretrain_builds_no_target_set(self):
        task = make_task()
        pretrain(task, DIMS, OptimConfig(base_lr=0.02, total_epochs=1), seed=5)
        assert "target_train" not in vars(task) and "target_test" not in vars(task)

    def test_finetune_builds_no_source_set(self, pre_and_task):
        pre, _ = pre_and_task
        task = make_task(seed=1, per_class=16, noise=0.12)
        finetune(pre, task, make_cfg())
        assert "source" not in vars(task)


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
        _, masks, _ = finetune_masks(pre, task, cfg)
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

    @pytest.mark.parametrize("variant", ["row", "col", "sparse", "full"])
    def test_reads_pre_in_place_and_trains_its_own_copy(self, pre_and_task, variant):
        pre, task = pre_and_task
        before = param_bytes(pre)
        model, _ = finetune(pre, task, make_cfg(variant=variant))
        assert param_bytes(pre) == before
        assert not shares_any_array(model, pre)

    def test_peak_holds_one_trained_copy_beside_pre(self, monkeypatch):
        # scoring, then the report's copy and its distances, peak at 2.12 and 2.09;
        # training and evaluation peak at 0.71 (at 0.88 with both anchors alive together,
        # at 1.76 while it trained a whole copy of layers 0 and 1)
        whole, training = wide_peaks_over_model_bytes(finetune, monkeypatch)
        assert whole <= 2.15 and training <= 0.75

    @pytest.mark.parametrize("variant", ["row", "full"])
    def test_head_is_drawn_for_the_task_whatever_pre_s_head(self, variant):
        pre = init_model([6, 12, 12, 5], seed=2)  # a 5-output head on a 3-class task
        task = make_task(seed=1, per_class=16, noise=0.12)
        model, report = finetune(pre, task, make_cfg(variant=variant))
        assert model.dims == [6, 12, 12, 3] and pre.dims == [6, 12, 12, 5]
        assert [m.shape for m in report.masks.layers] == [(12, 6), (12, 12), (3, 12)]
        assert report.masks.layers[-1].variant == "full"

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

    def test_reads_pre_in_place_and_trains_its_own_copy(self, pre_and_task):
        pre, task = pre_and_task
        before = param_bytes(pre)
        model, _ = linear_probe(pre, task, make_cfg())
        assert param_bytes(pre) == before
        assert not shares_any_array(model, pre)

    def test_peak_holds_one_trained_copy_beside_pre(self, monkeypatch):
        # the report's copy and its distances peak at 2.02; training and evaluation peak
        # at 0.64 (at 0.82 with both anchors alive together, at 1.69 with a whole trained
        # copy)
        whole, training = wide_peaks_over_model_bytes(linear_probe, monkeypatch)
        assert whole <= 2.05 and training <= 0.7


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

    @pytest.mark.parametrize("axis, values", [("variant", ["row", "col", "sparse", "full"]),
                                              ("lambda", [0.0, 1.0])])
    def test_reads_pre_in_place(self, pre_and_task, axis, values):
        pre, task = pre_and_task
        before = param_bytes(pre)
        ablate(pre, task, sweep_configs(pre, task, make_cfg(), axis, values))
        assert param_bytes(pre) == before

    @pytest.mark.parametrize("axis, values", [("lambda", [0.5, 0.5]), ("lambda", [0.0, -0.0]),
                                              ("k", [1, 2, 1]), ("variant", ["row", "row"])])
    def test_repeated_values_are_refused(self, pre_and_task, axis, values):
        pre, task = pre_and_task
        with pytest.raises(ConfigError, match="give each value once"):
            sweep_configs(pre, task, make_cfg(), axis, values)

    def test_axes_and_errors(self, pre_and_task):
        pre, task = pre_and_task
        assert "variant" in ABLATION_AXES
        with pytest.raises(ConfigError):
            ablate(pre, task, sweep_configs(pre, task, make_cfg(), "nope", [1]))
        with pytest.raises(ConfigError):
            ablate(pre, task, sweep_configs(pre, task, make_cfg(), "k", []))


class TestScoringOnce:
    """Scoring at pre does each thing once: the gradients finetune_masks builds its masks
    from are the oracle's bit for bit, and a sweep scores once per distinct (tau,
    subsets_n), each run's report the standalone finetune's byte for byte."""

    @pytest.mark.parametrize("dims", [[6, 3], [6, 8, 3], [6, 8, 7, 3], [6, 8, 7, 5, 3],
                                      ROW_PATH_DIMS])
    def test_finetune_masks_scores_as_the_oracle_bitwise(self, monkeypatch, dims):
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(dims, seed=2)
        cfg = make_cfg(subsets_n=3, reg=RegConfig(lam=0.01, regular=RegularSet(0)))
        train = task.target_train
        before = train.x.tobytes()
        seen, build = [], harness.compute_mask_set
        monkeypatch.setattr(harness, "compute_mask_set",
                            lambda gradients, *args: seen.append([h.tobytes() for h in gradients])
                            or build(gradients, *args))
        index, masks, _ = finetune_masks(pre, task, cfg)
        subsets = partition_subsets(train, cfg.subsets_n,
                                    Rng(cfg.seed).child(harness._STREAM_SUBSET))
        want_index, chosen = select_mask_subset(pre, train, subsets, cfg.tau)
        want = oracle_scl_gradients(pre, chosen.x, chosen.y, cfg.tau)
        assert index == want_index
        assert seen == [[h.tobytes() for h in want]]
        assert masks_to_doc(masks)["layers"][:-1] == \
            masks_to_doc(build(want, cfg.k, cfg.variant))["layers"][:-1]
        assert train.x.tobytes() == before

    @pytest.mark.parametrize("dims, axis, values", [
        (ROW_PATH_DIMS, "lambda", [0.0, 0.01, 0.1]), (ROW_PATH_DIMS, "subsets_n", [2, 3]),
        (ROW_PATH_DIMS, "variant", ["head", "col", "row", "full", "sparse"]),
        (ROW_PATH_DIMS, "k", [1, 3]),
        (DIMS, "variant", ["row", "col", "sparse", "full", "head"]), (DIMS, "subsets_n", [3, 2]),
        (DIMS, "norm", ["l1", "none"])])
    def test_each_report_is_the_standalone_finetune_s_from_one_scoring_per_tau_and_subsets_n(
            self, monkeypatch, tmp_path, dims, axis, values):
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(dims, seed=2)
        configs = sweep_configs(pre, task, make_cfg(), axis, values)
        alone = [finetune(pre, task, cfg)[1] for cfg in configs]
        scored, score = [], harness.scl_gradients
        monkeypatch.setattr(harness, "scl_gradients",
                            lambda *args: scored.append(args[3]) or score(*args))
        reports = ablate(pre, task, configs)
        assert len(scored) == len({(cfg.tau, cfg.subsets_n) for cfg in configs})
        for got, want in zip(reports, alone):
            for write in (write_report_json, write_report_csv):
                write(got, tmp_path / "got")
                write(want, tmp_path / "want")
                assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
            assert masks_to_doc(got.masks) == masks_to_doc(want.masks)

    @pytest.mark.parametrize("axis, values", [("lambda", [0.0, 0.01, 0.1]),
                                              ("subsets_n", [2, 3]), ("k", [3, 1])])
    def test_a_sweep_peaks_no_higher_than_its_runs_alone(self, axis, values):
        # the work at pre is shared, and between runs the sweep holds masks alone
        task = make_task(seed=1, per_class=40, noise=0.12)
        pre = init_model([6, 256, 256, 3], seed=2)
        configs = sweep_configs(pre, task, make_cfg(), axis, values)
        alone = max(peak_bytes(lambda: finetune(pre, task, cfg)) for cfg in configs)
        assert peak_bytes(lambda: ablate(pre, task, configs)) <= alone + 16 * 1024


class TestRowPath:
    """A run under row masks on layers 0 and 1 (the linear probe's empty ones included)
    whose layer 1 is wide enough forwards from two row anchors, and frees both before
    its report. A finetune run's training-set anchor comes out of subset selection's
    forward; the linear probe, which does not score, forwards both sets in ``row_anchor``.
    Each anchor keeps its set's layer-0 activation. The run trains every epoch first and
    builds the test set's anchor once the training set's is freed."""

    @pytest.mark.parametrize("run, variant, dims, built, scored", [
        (finetune, "row", ROW_PATH_DIMS, 2, 1), (linear_probe, "row", ROW_PATH_DIMS, 2, 1),
        (finetune, "col", ROW_PATH_DIMS, 0, 0), (finetune, "sparse", ROW_PATH_DIMS, 0, 0),
        (finetune, "full", ROW_PATH_DIMS, 0, 0), (finetune, "row", DIMS, 0, 0),
        (linear_probe, "row", DIMS, 0, 0), (finetune, "row", [6, 192, 3], 0, 0)])
    def test_only_wide_row_masks_build_anchors_and_the_report_frees_them(
            self, monkeypatch, run, variant, dims, built, scored):
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(dims, seed=2)
        anchors, from_scoring, alive_at_report = [], [], []
        row_anchor, trainable_fraction = harness.row_anchor, harness.trainable_fraction
        finetune_masks = harness.finetune_masks

        def recorded(*args, **kwargs):
            anchor = row_anchor(*args, **kwargs)
            anchors.extend(weakref.ref(a) for a in anchor if a is not None)
            return anchor

        def scoring(*args):
            subset_index, masks, anchor = finetune_masks(*args)
            if anchor is not None:
                from_scoring.append(weakref.ref(anchor.z1))
            return subset_index, masks, anchor

        def report_begins(*args):  # after the weight distances, before the report returns
            alive_at_report.append(sum(ref() is not None for ref in anchors + from_scoring))
            return trainable_fraction(*args)

        monkeypatch.setattr(harness, "row_anchor", recorded)
        monkeypatch.setattr(harness, "finetune_masks", scoring)
        monkeypatch.setattr(harness, "trainable_fraction", report_begins)
        run(pre, task, make_cfg(variant=variant, reg=RegConfig(lam=0.01, regular=RegularSet(0))))
        # z1 and the layer-0 activation of each anchor
        assert (len(anchors), len(from_scoring)) == (2 * built, scored)
        assert alive_at_report == [0]

    @pytest.mark.parametrize("seed, k", [(1, 2), (3, 3), (7, 2), (11, 5)])
    def test_scoring_builds_the_training_anchor_row_anchor_builds(self, seed, k):
        task = make_task(seed=seed, per_class=16, noise=0.12)
        pre = init_model(ROW_PATH_DIMS, seed=seed)
        _, masks, anchor = finetune_masks(pre, task, make_cfg(k=k, seed=seed))
        want = row_anchor(pre, task.target_train.x)
        assert anchor.z1.tobytes() == want.z1.tobytes()
        _, a0, _ = model_module.forward(pre.layer_range(0, 2), task.target_train.x)
        assert anchor.a0_whole.tobytes() == want.a0_whole.tobytes() == a0.tobytes()

    def test_a_finetune_forwards_the_training_set_through_layer_1_at_pre_once(self, monkeypatch):
        # selection forwards every training row through layers 0 and 1 at pre and keeps
        # layer 1's pre-activation; the chosen subset's scores take their rows of it and
        # form layer 0's activation alone, and row_anchor adds the training set's layer-0
        # activation and forwards the test set
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(ROW_PATH_DIMS, seed=2)
        train = task.target_train
        training_rows = {row.tobytes() for row in train.x}
        rows_at_pre, built = [], []
        forward, row_anchor = model_module.forward, harness.row_anchor

        def counted(m, x, *args):
            if len(m.layers) >= 2 and all(np.may_share_memory(a.weight, b.weight)
                                          for a, b in zip(m.layers[:2], pre.layers)):
                rows_at_pre.append(sum(row.tobytes() in training_rows for row in x))
            return forward(m, x, *args)

        for module in (data_module, masking, model_module, harness):
            if vars(module).get("forward") is forward:
                monkeypatch.setattr(module, "forward", counted)
        monkeypatch.setattr(harness, "row_anchor",
                            lambda *args, **kwargs: built.append(len(args) == 3)
                            or row_anchor(*args, **kwargs))
        finetune(pre, task, make_cfg())
        assert sum(rows_at_pre) == len(train)
        assert built == [True, False]  # the training set's from selection's z1, then the test set's

    def test_a_4_layer_row_path_model_scores_as_the_dense_forward(self, monkeypatch):
        # layers 2 and up go on from ReLU(z1): the features are not ReLU(z1) here
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model([6, 192, 192, 16, 3], seed=2)
        cfg = make_cfg(subsets_n=4, seed=4)
        subset_index, masks, anchor = finetune_masks(pre, task, cfg)
        # the subset and masks finetune_masks chose before it built the anchor
        assert subset_index == 3
        assert [m.index.tolist() for m in masks.layers[:-1]] == [[67, 124], [84, 138], [1, 4]]
        dense = row_anchor(pre, task.target_train.x)
        assert anchor.z1.tobytes() == dense.z1.tobytes()
        monkeypatch.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", np.inf)
        dense_index, dense_masks, no_anchor = finetune_masks(pre, task, cfg)
        assert (dense_index, no_anchor) == (subset_index, None)
        for got, dense in zip(masks.layers, dense_masks.layers):
            assert got.variant == dense.variant and np.array_equal(got.index, dense.index)

    def test_the_anchors_do_not_depend_on_the_masks(self, monkeypatch):
        # the same pre and task at two budgets: different masks, the same anchors
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(ROW_PATH_DIMS, seed=2)
        anchors, row_anchor = [], harness.row_anchor

        def recorded(*args, **kwargs):
            anchor = row_anchor(*args, **kwargs)
            anchors.append([a.tobytes() for a in anchor])
            return anchor

        monkeypatch.setattr(harness, "row_anchor", recorded)
        reports = [finetune(pre, task, make_cfg(k=k))[1] for k in (2, 5)]
        assert [len(r.masks.layers[0].index) for r in reports] == [2, 5]
        # the training set's anchor, then the test set's, each its z1 and a0_whole
        assert len(anchors) == 4 and anchors[:2] == anchors[2:]

    @pytest.mark.parametrize("run", [finetune, linear_probe])
    @pytest.mark.parametrize("dims, row_path", [(ROW_PATH_DIMS, True), (DIMS, False)])
    def test_the_row_path_is_decided_once_per_run(self, monkeypatch, run, dims, row_path):
        decided, decide = [], harness._row_path
        monkeypatch.setattr(harness, "_row_path",
                            lambda *args: decided.append(decide(*args)) or decided[-1])
        run(init_model(dims, seed=2), make_task(seed=1, per_class=16, noise=0.12), make_cfg())
        assert decided == [row_path]

    @pytest.mark.parametrize("run, scored", [(finetune, 1), (linear_probe, 0)])
    def test_each_anchor_is_built_once_what_came_before_it_is_freed(self, monkeypatch, run,
                                                                    scored):
        # the training set's after scoring's gradient vector, the test set's after the
        # training set's z1 and layer-0 activation
        task = make_task(seed=1, per_class=16, noise=0.12)
        gradients, built, alive = [], [], []
        row_anchor, scl_gradients = harness.row_anchor, harness.scl_gradients

        def scoring(*args):
            views = scl_gradients(*args)
            gradients.append(weakref.ref(views[0].base))
            return views

        def recorded(model, x, *args):
            alive.append([ref() is not None for ref in gradients + built])
            anchor = row_anchor(model, x, *args)
            built.extend(weakref.ref(a) for a in anchor)
            return anchor

        monkeypatch.setattr(harness, "scl_gradients", scoring)
        monkeypatch.setattr(harness, "row_anchor", recorded)
        run(init_model(ROW_PATH_DIMS, seed=2), task, make_cfg())
        assert (len(gradients), len(built)) == (scored, 4)
        assert alive == [[False] * scored, [False] * (scored + 2)]

    @pytest.mark.parametrize("run", [finetune, linear_probe])
    def test_row_path_training_forms_no_product_with_pre_s_layer_0(self, monkeypatch, run):
        # a step takes layer 0's activation at pre from the anchor: while _train runs no
        # product reads pre's layer 0, and with that layer all NaN the run is bit for bit
        # the one that could read it
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(ROW_PATH_DIMS, seed=2)
        want_model, want = run(pre, task, make_cfg())
        train, dense, layer = harness._train, model_module._dense, pre.layers[0]
        products, training = [], []

        def poisoned(*args):
            saved = layer.weight.copy(), layer.bias.copy()
            layer.weight[...], layer.bias[...] = np.nan, np.nan
            training.append(True)
            try:
                yield from train(*args)
            finally:
                training.clear()
                layer.weight[...], layer.bias[...] = saved

        def spied(a, weights, *args):
            if training:
                products.append(np.shares_memory(weights.weight, layer.weight))
            return dense(a, weights, *args)

        monkeypatch.setattr(harness, "_train", poisoned)
        monkeypatch.setattr(model_module, "_dense", spied)
        model, got = run(pre, task, make_cfg())
        assert products and not any(products)  # the trained columns and rows are formed
        assert repr(got.epochs) == repr(want.epochs)  # repr round-trips each float
        assert model.params.tobytes() == want_model.params.tobytes()

    @pytest.mark.parametrize("run, score", [
        (finetune, finetune_masks),
        (linear_probe, lambda pre, task, cfg: finetune_masks(pre, task,
                                                             replace(cfg, variant="head")))])
    @pytest.mark.parametrize("dims", [ROW_PATH_DIMS, DIMS])
    def test_evaluation_after_training_is_the_per_epoch_oracle_bitwise(self, run, score, dims):
        # the row path evaluates each epoch's kept vector after training, the dense path
        # each epoch as it ends: both as the oracle evaluates each epoch as it ends
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre, cfg = init_model(dims, seed=2), make_cfg()
        model, report = run(pre, task, cfg)
        want_model, want = oracle_finetune_with_masks(pre, task, cfg, score)
        assert len({e.test_accuracy for e in want}) > 1  # the epochs tell apart
        assert repr(report.epochs) == repr(want)  # repr round-trips each float
        assert repr(report.final_accuracy) == repr(want[-1].test_accuracy)
        assert model.params.tobytes() == want_model.params.tobytes()

    @pytest.mark.parametrize("run", [finetune, linear_probe])
    def test_row_path_run_is_the_dense_run_up_to_rounding(self, monkeypatch, run):
        task = make_task(seed=1, per_class=16, noise=0.12)
        pre = init_model(ROW_PATH_DIMS, seed=2)
        _, row = run(pre, task, make_cfg())
        monkeypatch.setattr(harness, "_ROW_PATH_MIN_WEIGHTS", np.inf)
        _, dense = run(pre, task, make_cfg())
        assert [e.test_accuracy for e in row.epochs] == [e.test_accuracy for e in dense.epochs]
        for a, b in zip(row.epochs, dense.epochs):
            assert a.loss_r == pytest.approx(b.loss_r, rel=1e-12)
        assert row.weight_distances == pytest.approx(dense.weight_distances, rel=1e-9)


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
