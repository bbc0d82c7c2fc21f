"""End-to-end pipelines: pretraining, masked fine-tuning, evaluation, ablations.

A run is a deterministic state machine: all randomness derives from one seed
through named sub-streams (head init, subset split, epoch shuffles), so the
same config replays the same trajectory bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .data import Dataset, TaskPair, partition_subsets, select_mask_subset
from .errors import ConfigError, NumericError, ShapeError
from .fileio import atomic_open, write_json
from .linalg import Rng
from .losses import (Penalty, RegConfig, check_tau, combined_grad, resolve_penalty,
                     resolve_regular_layers)
from .masking import (SELECTION_VARIANTS, GradientMaskSet, check_budget, compute_mask_set,
                      full_mask, scl_gradients, trainable_fraction)
from .model import (ModelParams, RowAnchor, RowParams, forward, init_model, reinit_head,
                    row_anchor, row_chunks)
from .optim import AdamState, OptimConfig, cosine_warmup_lr, init_adam_state, masked_adam_step

# below this many weights in layer 1, the dozen numpy calls the row path adds to a
# step cost more than the layer-1 product it avoids: with batches of 32 on one CPU,
# the two forwards took equal time near 128 x 128 (16,384 weights)
_ROW_PATH_MIN_WEIGHTS = 1 << 15

# sub-stream tags; fixed so trajectories are reproducible by construction
_STREAM_HEAD = 1
_STREAM_SUBSET = 2
_STREAM_SHUFFLE = 3


def _check_batch_size(batch_size: int) -> None:
    """Pretraining and fine-tuning both need at least one sample per batch."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


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
        check_tau(self.tau)
        if self.subsets_n < 1:
            raise ConfigError("subsets_n must be >= 1")
        _check_batch_size(self.batch_size)

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
    config: dict
    final_accuracy: float
    trainable_fraction: float
    storage_bits: int
    optimizer_state_bytes: int  # Adam moments over the trainable slices
    weight_distances: list[float]  # per-layer ||W - W_pre||_F
    mask_subset_index: int
    epochs: list[EpochStats]
    masks: GradientMaskSet  # the masks the run trained under; not serialized

    def to_dict(self) -> dict:
        """Every field but ``masks``, in field order."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)[:-1]}
        return {**doc, "epochs": [dataclasses.asdict(e) for e in self.epochs]}


def evaluate(model: ModelParams | RowParams, data: Dataset,
             anchor: RowAnchor | None = None) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class. The set
    is forwarded chunk by chunk (``row_chunks``): a ``RowParams`` on the row path from
    ``anchor`` (the ``RowAnchor`` of ``data``), a ``ModelParams`` densely."""
    if model.num_classes != data.num_classes:
        raise ShapeError(f"head width {model.num_classes} != classes {data.num_classes}")
    predicted = np.empty(len(data), dtype=np.intp)
    for rows in row_chunks(len(data), max(model.dims)):
        logits, _, _ = forward(model, data.x[rows], None if anchor is None else anchor.take(rows))
        predicted[rows] = np.argmax(logits, axis=1)
    return float(np.mean(predicted == data.y))


def _train(model: ModelParams | RowParams, masks: GradientMaskSet, penalty: Penalty,
           train: Dataset, optim: OptimConfig, batch_size: int, shuffle_rng: Rng,
           anchor: RowAnchor | None = None) -> Iterator[tuple[int, float, float, float, AdamState]]:
    """Train ``model`` in place, a ``RowParams`` on the row path from ``anchor`` (the
    ``RowAnchor`` of ``train``); yield (epoch, lr, mean loss_R, mean CE, Adam state) per epoch.
    The run holds one gradient vector: each step's backward writes all of it, the
    penalty adds into it and Adam leaves its update in it."""
    state = init_adam_state(model, masks)
    grad = np.empty(masks.size)
    for epoch in range(optim.total_epochs):
        lr = cosine_warmup_lr(epoch, optim)
        order = shuffle_rng.permutation(len(train))
        loss_sum = ce_sum = 0.0
        for start in range(0, len(train), batch_size):
            idx = order[start:start + batch_size]
            batch_anchor = None if anchor is None else anchor.take(idx)
            loss_r, ce, _ = combined_grad(model, masks, penalty, train.x[idx], train.y[idx],
                                          batch_anchor, out=grad)
            if not math.isfinite(loss_r):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            masked_adam_step(model, state, grad, masks, lr, optim)
            loss_sum += loss_r * len(idx)
            ce_sum += ce * len(idx)
        n = len(train)
        yield epoch, lr, loss_sum / n, ce_sum / n, state


def pretrain(task: TaskPair, dims: list[int], optim: OptimConfig,
             seed: int, batch_size: int = 32) -> ModelParams:
    """Full (unmasked) cross-entropy training on the source dataset."""
    _check_batch_size(batch_size)
    rng = Rng(seed)
    model = init_model(dims, rng.child(0))
    masks = GradientMaskSet.all_full(model)
    penalty = resolve_penalty(model.layers, RegConfig(lam=0.0, norm="none"), masks)
    for _ in _train(model, masks, penalty, task.source, optim, batch_size,
                    rng.child(_STREAM_SHUFFLE)):
        pass
    return model


def _with_new_head(pre: ModelParams, task: TaskPair, cfg: FineTuneConfig,
                   rows: tuple[np.ndarray, np.ndarray] | None) -> ModelParams | RowParams:
    """The run's one trained copy of ``pre`` under the run's new head, in one fresh vector:
    its layers below the head, or on the row path, where ``rows`` are the trained rows of
    layers 0 and 1, a ``RowParams`` of those rows and the layers above."""
    return reinit_head(pre, task.target_train.num_classes,
                       Rng(cfg.seed).child(_STREAM_HEAD), rows)


def _check_config(model: ModelParams, task: TaskPair, cfg: FineTuneConfig) -> None:
    """Before any scoring, refuse a k, regular set or subsets_n ``model`` or ``task`` cannot hold."""
    if cfg.variant != "full":
        check_budget([l.weight.shape for l in model.layers], cfg.k, cfg.variant)
    resolve_regular_layers(len(model.layers), cfg.reg.regular)
    n, samples = cfg.subsets_n, len(task.target_train)
    if 2 * n > samples:
        raise ConfigError(f"subsets_n={n} needs {2 * n} samples (2 per subset), got {samples}")


def _row_path(pre: ModelParams, variant: str) -> bool:
    """Whether a run on ``pre`` whose masks below the head are of ``variant`` forwards on
    the row path: row masks (empty ones, as the linear probe's, included), three or more
    layers, and at least ``_ROW_PATH_MIN_WEIGHTS`` weights in layer 1."""
    return (variant == "row" and len(pre.layers) >= 3
            and pre.layers[1].weight.size >= _ROW_PATH_MIN_WEIGHTS)


def _with_head_mask(masks: GradientMaskSet, pre: ModelParams, task: TaskPair) -> GradientMaskSet:
    """``masks`` under a full head mask shaped like the head a run draws for ``task``
    (``_with_new_head``)."""
    head = full_mask((task.target_train.num_classes, pre.feature_dim))
    return GradientMaskSet((*masks.layers[:-1], head))


def finetune_masks(pre: ModelParams, task: TaskPair,
                   cfg: FineTuneConfig) -> tuple[int, GradientMaskSet, RowAnchor | None]:
    """``_check_config``, subset selection, then (unless the variant is full) the subset's
    scores at ``pre`` (``scl_gradients``) and the one mask builder ``compute_mask_set``.
    The head plays no part in scoring; its mask is full (``_with_head_mask``). Returns the
    chosen subset's index, the masks a finetune run with this config trains under, and,
    where the run takes the row path (``_row_path``), the ``RowAnchor`` of ``pre`` over the
    target training set: selection writes layer 1's pre-activation of the set as it
    forwards the subsets, which cover it, and ``row_anchor`` takes it. Else the anchor is
    None."""
    _check_config(pre, task, cfg)
    train = task.target_train
    subsets = partition_subsets(train, cfg.subsets_n, Rng(cfg.seed).child(_STREAM_SUBSET))
    z1 = np.empty((len(train), pre.dims[2])) if _row_path(pre, cfg.variant) else None
    subset_index, mask_data = select_mask_subset(pre, train, subsets, cfg.tau, z1)
    if cfg.variant == "full":
        masks = GradientMaskSet.all_full(pre)
    else:
        gradients = scl_gradients(pre, mask_data.x, mask_data.y, cfg.tau)
        masks = compute_mask_set(gradients, cfg.k, cfg.variant)
    anchor = None if z1 is None else row_anchor(pre, train.x, z1)
    return subset_index, _with_head_mask(masks, pre, task), anchor


def _probe_masks(pre: ModelParams, task: TaskPair,
                 cfg: FineTuneConfig) -> tuple[int, GradientMaskSet, RowAnchor | None]:
    """The linear probe's stand-in for ``finetune_masks``: no scoring, subset index 0,
    masks that train the head alone (empty row masks below it) and, where the run takes
    the row path (``_row_path``), the ``RowAnchor`` of ``pre`` over the target training set
    from a forward of its own. Else the anchor is None."""
    anchor = row_anchor(pre, task.target_train.x) if _row_path(pre, "row") else None
    return 0, _with_head_mask(GradientMaskSet.head_only(pre), pre, task), anchor


def _finetune_with_masks(pre: ModelParams, task: TaskPair, cfg: FineTuneConfig,
                         score: Callable) -> tuple[ModelParams, TrainReport]:
    """Score (``score(pre, task, cfg)``: ``finetune_masks`` or ``_probe_masks``), then draw
    the run's one copy of ``pre`` under a new head (``_with_new_head``), train it towards
    its values now and return it as a ``ModelParams``. The anchor is ``pre``'s layers
    below the head, which are only read (and viewed by the penalty), and a copy of the
    new head.

    The run takes the row path exactly when ``score`` returns the ``RowAnchor`` of ``pre``
    over the target training set, so ``_row_path`` is decided once per run, in ``score``.
    There the copy is a ``RowParams`` that trains under the masks with ``rows_held=2``,
    the anchor holds copies of its rows of layers 0 and 1 in place of ``pre``'s layers,
    and the run forwards from that anchor and from ``row_anchor``'s over the test set,
    which keeps its layer-0 activation, so ``evaluate`` forms only layer 0's trained
    columns. This frame alone holds the anchors, and frees them before it writes the
    copy's layers 0 and 1 out whole for the report."""
    subset_index, masks, train_rows = score(pre, task, cfg)
    rows = None if train_rows is None else (masks.layers[0].index, masks.layers[1].index)
    model = _with_new_head(pre, task, cfg, rows)  # once scoring has freed its buffers
    held, run_masks, test_rows = 0, masks, None
    if rows is not None:
        held, run_masks = 2, replace(masks, rows_held=2)
        test_rows = row_anchor(pre, task.target_test.x, keep=True)
    anchor = (*(l.copy() for l in model.layers[:held]), *pre.layers[held:-1],
              model.layers[-1].copy())
    epochs = _train(model, run_masks, resolve_penalty(anchor, cfg.reg, run_masks),
                    task.target_train, cfg.optim, cfg.batch_size,
                    Rng(cfg.seed).child(_STREAM_SHUFFLE), train_rows)
    stats = []
    for epoch, lr, loss_r, ce, state in epochs:
        stats.append(EpochStats(epoch, lr, loss_r, ce,
                                evaluate(model, task.target_test, test_rows)))
    del train_rows, test_rows  # before the whole copy and the distances' temporaries
    if held:
        model = model.to_model()
    distances = [float(np.sqrt(np.sum((m.weight - a.weight) ** 2)))
                 for m, a in zip(model.layers, (*pre.layers[:-1], anchor[-1]))]
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
    """New head, subset selection and mask scoring at the pretrained weights, masked
    training. ``pre`` is only read: under the new head it is the run's anchor, and the
    run trains and returns one copy."""
    return _finetune_with_masks(pre, task, cfg, finetune_masks)


def linear_probe(pre: ModelParams, task: TaskPair,
                 cfg: FineTuneConfig) -> tuple[ModelParams, TrainReport]:
    """Head-only fine-tuning baseline under the same budget; it reads ``pre`` and trains
    one copy as ``finetune`` does."""
    return _finetune_with_masks(pre, task, cfg, _probe_masks)


ABLATION_AXES = {"k": int, "lambda": float, "regular_blocks": int, "subsets_n": int,
                 "variant": str, "norm": str}


def axis_type(axis: str) -> type:
    """The type of an ablation axis's values; an unknown axis raises ConfigError."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"unknown ablation axis {axis!r}; choose from {', '.join(ABLATION_AXES)}")
    return ABLATION_AXES[axis]


def _with_axis_value(cfg: FineTuneConfig, axis: str, value) -> FineTuneConfig:
    if axis == "lambda":
        return replace(cfg, reg=replace(cfg.reg, lam=value))
    if axis == "norm":
        return replace(cfg, reg=replace(cfg.reg, norm=value))
    if axis == "regular_blocks":
        return replace(cfg, reg=replace(cfg.reg, regular=replace(cfg.reg.regular, last_l=value)))
    return replace(cfg, **{axis: value})  # k, subsets_n and variant are fields of cfg


def sweep_configs(pre: ModelParams, task: TaskPair, base_cfg: FineTuneConfig, axis: str,
                  values: list) -> list[FineTuneConfig]:
    """``base_cfg`` with ``axis`` set to each value (of ``axis_type(axis)``), all else (seeds
    included) fixed; every config passes ``_check_config`` against ``pre`` and ``task``. Two
    values that give equal configs or print alike (the name of a run's files) are refused."""
    axis_type(axis)  # refuses an unknown axis
    if not values:
        raise ConfigError("values must be non-empty")
    configs = [_with_axis_value(base_cfg, axis, value) for value in values]
    for i, (value, cfg) in enumerate(zip(values, configs)):
        for earlier, twin in zip(values[:i], configs[:i]):
            if twin == cfg or str(earlier) == str(value):
                raise ConfigError(f"{axis} values {earlier!r} and {value!r} give the same "
                                  f"run or the same file name; give each value once")
        _check_config(pre, task, cfg)
    return configs


def ablate(pre: ModelParams, task: TaskPair, configs: list[FineTuneConfig]) -> list[TrainReport]:
    """Run finetune once per config of a sweep (see sweep_configs)."""
    return [finetune(pre, task, cfg)[1] for cfg in configs]


def write_report_json(report: TrainReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def write_report_csv(report: TrainReport, path: str | Path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "loss_R", "ce_loss", "test_acc"])
        for e in report.epochs:
            writer.writerow([e.epoch, repr(e.lr), repr(e.loss_r),
                             repr(e.ce_loss), repr(e.test_accuracy)])
