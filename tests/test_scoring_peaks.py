"""Tier-1 mirrors of the bench's ``peak_alloc_mb`` gate for scoring at the pretrained
model: ``finetune_masks`` on the acceptance config (``ref-pipeline`` peaks in scoring)
and on the wide config (where ``wide-finetune`` peaks), ``scl_gradients`` on 1000 rows
of the wide model (``wide-mask-report`` peaks there), and ``build_mask``'s row
statistics on a 768 x 768 gradient. Each is pinned at its tracemalloc peak plus 16 KiB,
so a rise fails here before the bench runs. The peaks depend on the shapes alone, not
on the values.
"""

import numpy as np
import pytest

from conftest import peak_bytes
from masktune import harness, init_model
from masktune.data import ShiftConfig, gen_task
from masktune.losses import RegConfig, RegularSet
from masktune.masking import build_mask, scl_gradients
from masktune.optim import OptimConfig

SLACK = 16 * 1024


def row_config(epochs: int, warmup: int, seed: int) -> harness.FineTuneConfig:
    return harness.FineTuneConfig(
        k=2, variant="row", reg=RegConfig(lam=0.01, norm="l2", regular=RegularSet(1)),
        tau=0.5, subsets_n=4,
        optim=OptimConfig(base_lr=0.02, total_epochs=epochs, warmup_epochs=warmup),
        batch_size=32, seed=seed)


def test_acceptance_config_scoring_peak():
    task = gen_task(16, 4, 200, 0.4, ShiftConfig(rotation_seed=5, magnitude=2.0), seed=7)
    pre = init_model([16, 32, 32, 4], seed=7)
    task.target_train  # drawn before the peak is measured: the gate is scoring's own
    cfg = row_config(40, 2, seed=7)
    assert peak_bytes(lambda: harness.finetune_masks(pre, task, cfg)) <= 843_378 + SLACK


def test_wide_config_scoring_peak():
    task = gen_task(256, 10, 100, 0.4, ShiftConfig(rotation_seed=5, magnitude=2.0), seed=0)
    pre = init_model([256, 768, 768, 10], seed=0)
    task.target_train
    cfg = row_config(3, 0, seed=0)
    assert peak_bytes(lambda: harness.finetune_masks(pre, task, cfg)) <= 16_372_803 + SLACK


def test_wide_mask_report_scoring_peak():
    # at the loss's ``sim @ z`` product: the n x n buffer, z (formed in the features'
    # own buffer, which then takes their gradient), the product and the head input's
    # ReLU gate as bits, and no row block. Layer 0's activation is formed only once the
    # buffer and the product are freed, and backward forms layer 0's delta in it,
    # beside the gradient vector, once the head input's unpacked gate is dropped
    rng = np.random.default_rng(0)
    pre = init_model([256, 768, 768, 10], seed=0)
    x, y = rng.normal(size=(1000, 256)), rng.integers(0, 10, size=1000)
    assert peak_bytes(lambda: scl_gradients(pre, x, y, 0.5)) <= 20_478_036 + SLACK


@pytest.mark.parametrize("variant, peak", [("row", 266_144), ("sparse", 1_432_678)])
def test_row_statistics_peak(variant, peak):
    # one block of rows' temporaries at a time, beside the mask's own arrays
    h = np.random.default_rng(0).normal(size=(768, 768))
    assert peak_bytes(lambda: build_mask(h, 2, variant)) <= peak + SLACK
