"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (bypassing pytest capture) so a plain
``pytest tests/test_acceptance.py`` run shows the per-criterion verdicts.
"""

import contextlib
import json
import sys
import time

import numpy as np
import pytest

from conftest import sparse_from_bits
from masktune.cli import main as cli_main
from masktune.data import Dataset, ShiftConfig, gen_task, partition_subsets, save_dataset_csv, select_mask_subset
from masktune.harness import FineTuneConfig, evaluate, finetune, finetune_masks, linear_probe, pretrain
from masktune.linalg import Rng, finite_diff_grad
from masktune.losses import (
    RegConfig,
    RegularSet,
    cross_entropy,
    reg_penalty,
    resolve_penalty,
    resolve_regular_layers,
    scl_loss,
)
from masktune.masking import (
    GradientMaskSet,
    LayerMask,
    brute_force_best_rows,
    build_mask,
    full_mask,
    mask_objective,
    retained_energy,
    storage_comparison,
)
from masktune.model import (
    GradientSet,
    Layer,
    LayerGrad,
    ModelParams,
    backward,
    forward,
    init_model,
    reinit_head,
    save_checkpoint,
)
from masktune.optim import OptimConfig, cosine_warmup_lr, init_adam_state, masked_adam_step


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}", file=sys.__stdout__)
        raise
    print(f"PASS criterion {num:2d}: {desc}", file=sys.__stdout__)


# ---------------------------------------------------------------------------
# Reference transfer setup shared by criteria 7, 11, and 12.

REF_DIMS = [16, 32, 32, 4]
REF_PIN_ACCURACY = 0.94125  # frozen from the first reference run of this config


def reference_cfg(**overrides):
    base = dict(
        k=2,
        variant="row",
        reg=RegConfig(lam=0.01, norm="l2", regular=RegularSet(1)),
        tau=0.5,
        subsets_n=4,
        optim=OptimConfig(base_lr=0.02, total_epochs=40, warmup_epochs=2),
        batch_size=32,
        seed=7,
    )
    base.update(overrides)
    return FineTuneConfig(**base)


@pytest.fixture(scope="module")
def reference():
    task = gen_task(16, 4, 200, 0.4, ShiftConfig(rotation_seed=5, magnitude=2.0), seed=7)
    optim = OptimConfig(base_lr=0.05, total_epochs=30, warmup_epochs=2)
    pre = pretrain(task, REF_DIMS, optim, seed=7)
    return pre, task


@pytest.fixture(scope="module")
def small_setup():
    task = gen_task(6, 3, 12, 0.15, ShiftConfig(rotation_seed=7, magnitude=0.6), seed=1)
    optim = OptimConfig(base_lr=0.05, total_epochs=10, warmup_epochs=1)
    pre = pretrain(task, [6, 12, 12, 3], optim, seed=2)
    return pre, task


def test_criterion_01_selection_matches_brute_force():
    with criterion(1, "row/column mask objective equals exhaustive optimum (200 matrices, all k)"):
        tic = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(1, 9))
            h = rng.normal(size=(rows, cols))
            for k in range(1, rows + 1):
                fast = mask_objective(h, build_mask(h, k, "row"))
                best = mask_objective(h, LayerMask("row", h.shape, brute_force_best_rows(h, k)))
                assert abs(fast - best) <= 1e-12 * max(best, 1e-300)
            for k in range(1, cols + 1):
                fast = mask_objective(h, build_mask(h, k, "col"))
                best_cols = brute_force_best_rows(h.T, k)
                best = mask_objective(h, LayerMask("col", h.shape, best_cols))
                assert abs(fast - best) <= 1e-12 * max(best, 1e-300)
        assert time.perf_counter() - tic < 5.0


def test_criterion_02_inner_product_identity():
    with criterion(2, "<G, G*M> equals ||G*M||^2 within 1e-12 relative (1000 pairs)"):
        tic = time.perf_counter()
        rng = np.random.default_rng(202)
        for _ in range(1000):
            rows = int(rng.integers(1, 10))
            cols = int(rng.integers(1, 10))
            g = rng.normal(size=(rows, cols)) * float(rng.uniform(0.1, 100.0))
            bits = (rng.uniform(size=(rows, cols)) < 0.5).astype(float)
            mask = sparse_from_bits(bits)
            inner = float(np.sum(g * (g * bits)))
            energy = retained_energy(g, mask)
            assert abs(inner - energy) <= 1e-12 * max(abs(inner), 1e-300)
        assert time.perf_counter() - tic < 1.0


def test_criterion_03_gradient_fidelity():
    with criterion(3, "analytic gradients match finite differences within 1e-4 (50 instances each)"):
        tic = time.perf_counter()
        rng = np.random.default_rng(303)

        def rel_err(a, b):
            denom = max(np.sqrt(np.sum(b * b)), 1e-300)
            return np.sqrt(np.sum((a - b) ** 2)) / denom

        for i in range(50):
            n, c = int(rng.integers(3, 8)), int(rng.integers(2, 5))
            logits = rng.normal(size=(n, c))
            y = rng.integers(0, c, size=n)
            _, d = cross_entropy(logits, y)
            fd = finite_diff_grad(lambda L: cross_entropy(L, y)[0], logits, 1e-5)
            assert rel_err(d, fd) < 1e-4

            f = rng.normal(size=(n, int(rng.integers(2, 6))))
            yc = rng.integers(0, 2, size=n)
            tau = float(rng.uniform(0.2, 1.0))
            _, df = scl_loss(f, yc, tau)
            fdf = finite_diff_grad(lambda F: scl_loss(F, yc, tau)[0], f, 1e-5)
            assert rel_err(df, fdf) < 1e-4

            model = init_model([4, 5, 3], seed=i)
            pre = init_model([4, 5, 3], seed=i + 1000)
            cfg = RegConfig(lam=float(rng.uniform(0.1, 2.0)),
                            norm="l1" if i % 2 else "l2",
                            regular=RegularSet(0, include_head=True))
            penalty = resolve_penalty(pre, cfg, GradientMaskSet.all_full(pre))
            _, grads = reg_penalty(model, penalty)
            for li in resolve_regular_layers(model, cfg.regular):
                def loss_of(w, li=li):
                    probe = model.copy()
                    probe.layers[li].weight = w
                    return reg_penalty(probe, penalty)[0]
                fdw = finite_diff_grad(loss_of, model.layers[li].weight, 1e-6)
                assert rel_err(grads.layers[li].weight, fdw) < 1e-4
        assert time.perf_counter() - tic < 30.0


def test_criterion_04_frozen_entries_bitwise(small_setup):
    with criterion(4, "masked-out weights/biases bitwise unchanged after 100-epoch runs (row/col/sparse)"):
        pre, task = small_setup
        for variant in ("row", "col", "sparse"):
            cfg = reference_cfg(variant=variant, k=2, subsets_n=2, batch_size=12, seed=3,
                                optim=OptimConfig(base_lr=0.02, total_epochs=100, warmup_epochs=2))
            _, masks = finetune_masks(pre, task, cfg)
            model, _ = finetune(pre, task, cfg)
            for li in range(len(pre.layers) - 1):
                wm = masks.layers[li].to_dense()
                bm = masks.layers[li].bias_mask()
                assert np.array_equal(model.layers[li].weight[wm == 0.0],
                                      pre.layers[li].weight[wm == 0.0])
                assert np.array_equal(model.layers[li].bias[bm == 0.0],
                                      pre.layers[li].bias[bm == 0.0])


def _textbook_adam(w, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return w - lr * m_hat / np.sqrt(v_hat + eps), m, v


def test_criterion_05_masked_adam_equivalence():
    with criterion(5, "masked Adam == plain Adam on pre-zeroed gradients (100 steps, 1e-15)"):
        rng = np.random.default_rng(505)
        bits = (rng.uniform(size=(4, 5)) < 0.5).astype(float)
        masks = GradientMaskSet((sparse_from_bits(bits),))
        bias_bits = masks.layers[0].bias_mask()
        w0, b0 = rng.normal(size=(4, 5)), rng.normal(size=4)
        model = ModelParams([Layer(w0.copy(), b0.copy())])
        state = init_adam_state(model, masks)
        cfg = OptimConfig(base_lr=0.01, total_epochs=1)
        wi, bi = masks.layers[0].trainable
        rw, rb = w0.copy(), b0.copy()
        rmw = rvw = np.zeros_like(w0)
        rmb = rvb = np.zeros_like(b0)
        for t in range(1, 101):
            gw, gb = rng.normal(size=(4, 5)), rng.normal(size=4)
            grads = GradientSet([LayerGrad(gw[wi], gb[bi])])
            model, state = masked_adam_step(model, state, grads, masks, 0.01, cfg)
            rw, rmw, rvw = _textbook_adam(rw, rmw, rvw, gw * bits, t, 0.01)
            rb, rmb, rvb = _textbook_adam(rb, rmb, rvb, gb * bias_bits, t, 0.01)
            assert np.all(np.abs(model.layers[0].weight - rw) <= 1e-15)
            assert np.all(np.abs(model.layers[0].bias - rb) <= 1e-15)

        # all-Full masks reproduce standard Adam exactly
        model = ModelParams([Layer(w0.copy(), b0.copy())])
        full = GradientMaskSet((full_mask((4, 5)),))
        state = init_adam_state(model, full)
        rw, rb = w0.copy(), b0.copy()
        rmw = rvw = np.zeros_like(w0)
        rmb = rvb = np.zeros_like(b0)
        for t in range(1, 101):
            gw, gb = rng.normal(size=(4, 5)), rng.normal(size=4)
            grads = GradientSet([LayerGrad(gw, gb)])
            model, state = masked_adam_step(model, state, grads, full, 0.01, cfg)
            rw, rmw, rvw = _textbook_adam(rw, rmw, rvw, gw, t, 0.01)
            rb, rmb, rvb = _textbook_adam(rb, rmb, rvb, gb, t, 0.01)
            assert np.array_equal(model.layers[0].weight, rw)
            assert np.array_equal(model.layers[0].bias, rb)


def test_criterion_06_reduction_to_full_finetuning(small_setup):
    with criterion(6, "variant=full with zero pull reproduces plain fine-tuning per epoch (1e-12)"):
        pre, task = small_setup
        cfg = reference_cfg(variant="full", subsets_n=1, batch_size=12, seed=9,
                            reg=RegConfig(lam=0.0, norm="none", regular=RegularSet(0)),
                            optim=OptimConfig(base_lr=0.02, total_epochs=15, warmup_epochs=2))
        model, report = finetune(pre, task, cfg)

        # independent plain fine-tuning loop (no masking machinery)
        classes = task.target_train.num_classes
        ref = reinit_head(pre, classes, Rng(cfg.seed).child(1))
        shuffle = Rng(cfg.seed).child(3)
        n = len(task.target_train)
        ms = [np.zeros_like(l.weight) for l in ref.layers]
        vs = [np.zeros_like(l.weight) for l in ref.layers]
        mbs = [np.zeros_like(l.bias) for l in ref.layers]
        vbs = [np.zeros_like(l.bias) for l in ref.layers]
        t = 0
        for epoch in range(cfg.optim.total_epochs):
            lr = cosine_warmup_lr(epoch, cfg.optim)
            order = shuffle.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                logits, _, cache = forward(ref, task.target_train.x[idx])
                loss, d = cross_entropy(logits, task.target_train.y[idx])
                grads = backward(ref, cache, GradientMaskSet.all_full(ref), d_logits=d)
                loss_sum += loss * len(idx)
                t += 1
                for li, layer in enumerate(ref.layers):
                    layer.weight, ms[li], vs[li] = _textbook_adam(
                        layer.weight, ms[li], vs[li], grads.layers[li].weight, t, lr)
                    layer.bias, mbs[li], vbs[li] = _textbook_adam(
                        layer.bias, mbs[li], vbs[li], grads.layers[li].bias, t, lr)
            stats = report.epochs[epoch]
            assert abs(stats.loss_r - loss_sum / n) <= 1e-12 * max(1.0, abs(stats.loss_r))
            assert stats.ce_loss == stats.loss_r
            assert stats.test_accuracy == evaluate(ref, task.target_test)
        for got, want in zip(model.layers, ref.layers):
            assert np.all(np.abs(got.weight - want.weight) <= 1e-12)
            assert np.all(np.abs(got.bias - want.bias) <= 1e-12)


def test_criterion_07_regularization_pull(reference):
    with criterion(7, "lambda=1e2 keeps regularized layers within 10% of the free run's drift"):
        pre, task = reference
        regular = RegularSet(1, include_embedding=True, include_head=False)
        free = reference_cfg(reg=RegConfig(lam=0.0, norm="l2", regular=regular))
        pulled = reference_cfg(reg=RegConfig(lam=100.0, norm="l2", regular=regular))
        _, rep_free = finetune(pre, task, free)
        _, rep_pulled = finetune(pre, task, pulled)
        for li in resolve_regular_layers(pre, regular):
            assert rep_free.weight_distances[li] > 0.0
            assert rep_pulled.weight_distances[li] < 0.10 * rep_free.weight_distances[li]


def test_criterion_08_storage_accounting(tmp_path, capsys):
    with criterion(8, "768x768 @ k=2: 20-bit row mask vs 589824 dense vs 15360 sparse, printed by mask-report"):
        row = LayerMask("row", (768, 768), (0, 1))
        sparse = LayerMask("sparse", (768, 768), tuple((0, 1) for _ in range(768)))
        assert row.storage_bits() == 20
        assert storage_comparison(row, 2)["dense"] == 589824
        assert sparse.storage_bits() == 15360
        assert row.storage_bits() / storage_comparison(row, 2)["dense"] < 4e-5

        model = init_model([768, 768, 4], seed=0)
        ckpt = tmp_path / "wide.json"
        save_checkpoint(model, ckpt)
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(8, 768)), np.array([0, 0, 1, 1, 2, 2, 3, 3]), 4)
        data_path = tmp_path / "wide.csv"
        save_dataset_csv(data, data_path)
        out = tmp_path / "report.json"
        assert cli_main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                         "--k", "2", "--variant", "row", "--tau", "0.5",
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "row=20" in printed
        assert "sparse=15360" in printed
        assert "dense=589824" in printed
        doc = json.loads(out.read_text())
        assert doc["layers"][0]["storage_bits"] == {
            "selected": 20, "row": 20, "sparse": 15360, "dense": 589824}


def test_criterion_09_learning_rate_schedule():
    with criterion(9, "cosine schedule: base_lr at warmup end, 0 at the end, half at midpoint, non-increasing"):
        cfg = OptimConfig(base_lr=0.3, total_epochs=50, warmup_epochs=10)
        assert cosine_warmup_lr(10, cfg) == cfg.base_lr
        assert abs(cosine_warmup_lr(50, cfg)) <= 1e-12 * cfg.base_lr
        assert abs(cosine_warmup_lr(30, cfg) - cfg.base_lr / 2) <= 1e-12
        lrs = [cosine_warmup_lr(e, cfg) for e in range(10, 51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


def test_criterion_10_subset_selection(reference):
    with criterion(10, "selected subset has the minimal contrastive loss; n=1 returns the whole set"):
        pre, task = reference
        anchor = reinit_head(pre, task.target_train.num_classes, Rng(0).child(1))
        subsets = partition_subsets(task.target_train, 5, seed=4)
        idx, chosen = select_mask_subset(anchor, subsets, 0.5)
        losses = []
        for s in subsets:
            _, feats, _ = forward(anchor, s.x)
            losses.append(scl_loss(feats, s.y, 0.5)[0] / len(s))
        assert all(losses[idx] <= l for l in losses)
        assert chosen is subsets[idx]

        whole = partition_subsets(task.target_train, 1, seed=4)
        idx1, only = select_mask_subset(anchor, whole, 0.5)
        assert idx1 == 0 and len(only) == len(task.target_train)


def test_criterion_11_transfer_reproduction(reference):
    with criterion(11, "reference transfer: masked-row k=2 beats linear probe, >=0.90, <25% trainable, <60s, pinned"):
        pre, task = reference
        cfg = reference_cfg()
        tic = time.perf_counter()
        _, report = finetune(pre, task, cfg)
        elapsed = time.perf_counter() - tic
        _, probe = linear_probe(pre, task, cfg)
        assert report.final_accuracy > probe.final_accuracy
        assert report.final_accuracy >= 0.90
        assert report.trainable_fraction < 0.25
        assert elapsed < 60.0
        assert abs(report.final_accuracy - REF_PIN_ACCURACY) <= 0.005


def test_criterion_12_variant_ablation_shape(reference):
    with criterion(12, "row/col/sparse variants complete; trainable fractions match hand counts exactly"):
        pre, task = reference
        # dims [16,32,32,4]: layer params 544 + 1056 + 132 = 1732 total
        # row k=2:    (2*16+2) + (2*32+2) + 132 = 232
        # col k=2:    (2*32+0) + (2*32+0) + 132 = 260  (biases frozen)
        # sparse k=2: (32*2+32) + (32*2+32) + 132 = 324 (every row keeps 2 entries)
        expected = {"row": 232, "col": 260, "sparse": 324}
        for variant, count in expected.items():
            _, report = finetune(pre, task, reference_cfg(variant=variant))
            assert 0.0 <= report.final_accuracy <= 1.0
            assert report.trainable_fraction == count / 1732
