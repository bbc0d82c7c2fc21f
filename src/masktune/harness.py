"""End-to-end pipelines: pretraining, masked fine-tuning, evaluation, ablations.

A run is a deterministic state machine: all randomness derives from one seed
through named sub-streams (head init, subset split, epoch shuffles), so the
same config replays the same trajectory bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import Dataset, TaskPair, partition_subsets, select_mask_subset
from .errors import ConfigError, NumericError, ShapeError
from .fileio import atomic_open
from .linalg import Rng
from .losses import Penalty, RegConfig, combined_grad, resolve_penalty
from .masking import (SELECTION_VARIANTS, GradientMaskSet, check_budget, compute_mask_set,
                      trainable_fraction)
from .model import ModelParams, forward, init_model, reinit_head
from .optim import AdamState, OptimConfig, cosine_warmup_lr, init_adam_state, masked_adam_step

# sub-stream tags; fixed so trajectories are reproducible by construction
_STREAM_HEAD = 1
_STREAM_SUBSET = 2
_STREAM_SHUFFLE = 3


@dataclass(frozen=True)
class FineTuneConfig:
    k: int
    variant: str  # a masking.SELECTION_VARIANTS entry, or "full"
    reg: RegConfig
    tau: float
    subsets_n: int
    optim: OptimConfig
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.variant not in (*SELECTION_VARIANTS, "full"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.tau < np.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.subsets_n < 1:
            raise ConfigError("subsets_n must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss_r: float
    ce_loss: float
    test_accuracy: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    final_accuracy: float
    trainable_fraction: float
    storage_bits: int
    optimizer_state_bytes: int  # Adam moments over the trainable slices
    weight_distances: list[float]  # per-layer ||W - W_pre||_F
    mask_subset_index: int
    masks: GradientMaskSet  # the masks the run trained under; not serialized
    config: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "final_accuracy": self.final_accuracy,
            "trainable_fraction": self.trainable_fraction,
            "storage_bits": self.storage_bits,
            "optimizer_state_bytes": self.optimizer_state_bytes,
            "weight_distances": self.weight_distances,
            "mask_subset_index": self.mask_subset_index,
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
        }


def evaluate(model: ModelParams, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class."""
    if model.num_classes != data.num_classes:
        raise ShapeError(f"head width {model.num_classes} != classes {data.num_classes}")
    logits, _, _ = forward(model, data.x)
    return float(np.mean(np.argmax(logits, axis=1) == data.y))


def _train(model: ModelParams, masks: GradientMaskSet, penalty: Penalty, train: Dataset,
           optim: OptimConfig, batch_size: int,
           shuffle_rng: Rng) -> Iterator[tuple[int, float, float, float, AdamState]]:
    """Train ``model`` in place; yield (epoch, lr, mean loss_R, mean CE, Adam state) per epoch."""
    state = init_adam_state(model, masks)
    for epoch in range(optim.total_epochs):
        lr = cosine_warmup_lr(epoch, optim)
        order = shuffle_rng.permutation(len(train))
        loss_sum = ce_sum = 0.0
        for start in range(0, len(train), batch_size):
            idx = order[start:start + batch_size]
            loss_r, ce, grads = combined_grad(model, masks, penalty, train.x[idx], train.y[idx])
            if not np.isfinite(loss_r):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            masked_adam_step(model, state, grads, masks, lr, optim)
            loss_sum += loss_r * len(idx)
            ce_sum += ce * len(idx)
        n = len(train)
        yield epoch, lr, loss_sum / n, ce_sum / n, state


def pretrain(task: TaskPair, dims: list[int], optim: OptimConfig,
             seed: int, batch_size: int = 32) -> ModelParams:
    """Full (unmasked) cross-entropy training on the source dataset."""
    rng = Rng(seed)
    model = init_model(dims, rng.child(0))
    masks = GradientMaskSet.all_full(model)
    penalty = resolve_penalty(model, RegConfig(lam=0.0, norm="none"), masks)
    for _ in _train(model, masks, penalty, task.source, optim, batch_size,
                    rng.child(_STREAM_SHUFFLE)):
        pass
    return model


def _with_new_head(pre: ModelParams, task: TaskPair, cfg: FineTuneConfig) -> ModelParams:
    """A copy of ``pre`` with the run's freshly drawn head for the target classes."""
    return reinit_head(pre, task.target_train.num_classes,
                       Rng(cfg.seed).child(_STREAM_HEAD))


def _check_subsets_n(n: int, target: Dataset) -> None:
    """Each scoring subset must hold the two samples the contrastive loss needs."""
    if 2 * n > len(target):
        raise ConfigError(f"subsets_n={n} needs {2 * n} samples (2 per subset), got {len(target)}")


def finetune_masks(model: ModelParams, task: TaskPair,
                   cfg: FineTuneConfig) -> tuple[int, GradientMaskSet]:
    """Subset selection and contrastive scoring at the given weights.

    The head's weights play no part in scoring; the head mask is full and
    has the shape of ``model``'s head. Returns the chosen subset's index and
    the masks a finetune run with this config trains under.
    """
    _check_subsets_n(cfg.subsets_n, task.target_train)
    subsets = partition_subsets(task.target_train, cfg.subsets_n,
                                Rng(cfg.seed).child(_STREAM_SUBSET))
    subset_index, mask_data = select_mask_subset(model, subsets, cfg.tau)
    masks = compute_mask_set(model, mask_data.x, mask_data.y, cfg.k, cfg.variant, cfg.tau)
    return subset_index, masks


def _finetune_with_masks(model: ModelParams, task: TaskPair, cfg: FineTuneConfig,
                         subset_index: int,
                         masks: GradientMaskSet) -> tuple[ModelParams, TrainReport]:
    """Train ``model`` in place towards a copy of its starting weights."""
    anchor = model.copy()
    epochs = _train(model, masks, resolve_penalty(anchor, cfg.reg, masks), task.target_train,
                    cfg.optim, cfg.batch_size, Rng(cfg.seed).child(_STREAM_SHUFFLE))
    stats = []
    for epoch, lr, loss_r, ce, state in epochs:
        stats.append(EpochStats(epoch, lr, loss_r, ce, evaluate(model, task.target_test)))
    distances = [float(np.sqrt(np.sum((m.weight - a.weight) ** 2)))
                 for m, a in zip(model.layers, anchor.layers)]
    report = TrainReport(
        epochs=stats,
        final_accuracy=stats[-1].test_accuracy,
        trainable_fraction=trainable_fraction(model, masks),
        storage_bits=masks.total_storage_bits(),
        optimizer_state_bytes=state.nbytes,
        weight_distances=distances,
        mask_subset_index=subset_index,
        masks=masks,
        config=cfg.to_dict(),
    )
    return model, report


def finetune(pre: ModelParams, task: TaskPair,
             cfg: FineTuneConfig) -> tuple[ModelParams, TrainReport]:
    """New head, subset selection and mask scoring at the pretrained weights, masked training."""
    model = _with_new_head(pre, task, cfg)
    subset_index, masks = finetune_masks(model, task, cfg)
    return _finetune_with_masks(model, task, cfg, subset_index, masks)


def linear_probe(pre: ModelParams, task: TaskPair,
                 cfg: FineTuneConfig) -> tuple[ModelParams, TrainReport]:
    """Head-only fine-tuning baseline under the same budget."""
    model = _with_new_head(pre, task, cfg)
    return _finetune_with_masks(model, task, cfg, 0, GradientMaskSet.head_only(model))


ABLATION_AXES = ("k", "lambda", "regular_blocks", "subsets_n", "variant", "norm")


def _with_axis_value(cfg: FineTuneConfig, axis: str, value) -> FineTuneConfig:
    if axis == "k":
        return dataclasses.replace(cfg, k=int(value))
    if axis == "lambda":
        return dataclasses.replace(cfg, reg=dataclasses.replace(cfg.reg, lam=float(value)))
    if axis == "regular_blocks":
        regular = dataclasses.replace(cfg.reg.regular, last_l=int(value))
        return dataclasses.replace(cfg, reg=dataclasses.replace(cfg.reg, regular=regular))
    if axis == "subsets_n":
        return dataclasses.replace(cfg, subsets_n=int(value))
    if axis == "variant":
        return dataclasses.replace(cfg, variant=str(value))
    if axis == "norm":
        return dataclasses.replace(cfg, reg=dataclasses.replace(cfg.reg, norm=str(value)))
    raise ConfigError(f"unknown ablation axis {axis!r}; choose from {', '.join(ABLATION_AXES)}")


def sweep_configs(pre: ModelParams, task: TaskPair, base_cfg: FineTuneConfig, axis: str,
                  values: list) -> list[FineTuneConfig]:
    """``base_cfg`` with ``axis`` set to each value, all else (seeds included) fixed; each
    k, regular set and subsets_n is checked against ``pre`` and ``task`` before any run."""
    if not values:
        raise ConfigError("values must be non-empty")
    configs = [_with_axis_value(base_cfg, axis, value) for value in values]
    for cfg in configs:
        if cfg.variant != "full":
            check_budget([l.weight.shape for l in pre.layers], cfg.k, cfg.variant)
        resolve_penalty(pre, cfg.reg, GradientMaskSet.all_full(pre))
        _check_subsets_n(cfg.subsets_n, task.target_train)
    return configs


def ablate(pre: ModelParams, task: TaskPair, configs: list[FineTuneConfig]) -> list[TrainReport]:
    """Run finetune once per config of a sweep (see sweep_configs)."""
    return [finetune(pre, task, cfg)[1] for cfg in configs]


def write_report_json(report: TrainReport, path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(report.to_dict(), indent=1))


def write_report_csv(report: TrainReport, path: str | Path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "loss_R", "ce_loss", "test_acc"])
        for e in report.epochs:
            writer.writerow([e.epoch, repr(e.lr), repr(e.loss_r),
                             repr(e.ce_loss), repr(e.test_accuracy)])
