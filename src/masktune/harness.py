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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .data import Dataset, TaskPair, partition_subsets, select_mask_subset
from .errors import ConfigError, NumericError, ShapeError
from .fileio import atomic_open, write_json
from .linalg import Rng
from .losses import (Penalty, RegConfig, check_tau, combined_grad, resolve_penalty,
                     resolve_regular_layers)
from .masking import (SELECTION_VARIANTS, GradientMaskSet, check_budget, compute_mask_set,
                      full_mask, scl_gradients, trainable_fraction)
from .model import (ModelParams, RowAnchor, RowParams, backprop_views, forward, init_model,
                    reinit_head, row_anchor, row_chunks)
from .optim import (AdamState, OptimConfig, adam_views, cosine_warmup_lr, init_adam_state,
                    masked_adam_step)

# below this many weights in layer 1, the dozen numpy calls the row path adds to a
# step cost more than the layer-1 product it avoids: with batches of 32 on one CPU,
# the two forwards took equal time near 128 x 128 (16,384 weights)
_ROW_PATH_MIN_WEIGHTS = 1 << 15

# sub-stream tags; fixed so trajectories are reproducible by construction
_STREAM_HEAD = 1
_STREAM_SUBSET = 2
_STREAM_SHUFFLE = 3

# what a run trains below its new head: selection's masks, all, or nothing (the linear probe)
RUN_VARIANTS = (*SELECTION_VARIANTS, "full", "head")


def _check_batch_size(batch_size: int) -> None:
    """Pretraining and fine-tuning both need at least one sample per batch."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


@dataclass(frozen=True)
class FineTuneConfig:
    k: int
    variant: str  # a RUN_VARIANTS entry
    reg: RegConfig
    tau: float
    subsets_n: int
    optim: OptimConfig
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.variant not in RUN_VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"choose from {', '.join(RUN_VARIANTS)}")
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
    penalty adds into it and Adam leaves its update in it. The views of it and of Adam's
    moments that a step reads and writes are resolved once."""
    state, grad = init_adam_state(model, masks), np.empty(masks.size)
    views = backprop_views(masks, grad), penalty.views(grad)
    adam = adam_views(state, grad)
    for epoch in range(optim.total_epochs):
        lr = cosine_warmup_lr(epoch, optim)
        order = shuffle_rng.permutation(len(train))
        loss_sum = ce_sum = 0.0
        for start in range(0, len(train), batch_size):
            idx = order[start:start + batch_size]
            loss_r, ce, _ = combined_grad(model, masks, penalty, train.x[idx], train.y[idx],
                                          None if anchor is None else anchor.take(idx), grad, views)
            if not math.isfinite(loss_r):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            masked_adam_step(model, state, grad, masks, lr, optim, adam)
            loss_sum += loss_r * len(idx)
            ce_sum += ce * len(idx)
        n = len(train)
        yield epoch, lr, loss_sum / n, ce_sum / n, state


def pretrain(task: TaskPair, dims: list[int], optim: OptimConfig,
             seed: int, batch_size: int = 32) -> ModelParams:
    """Full (unmasked) cross-entropy training on the source dataset, once ``dims`` are
    known to fit its features and classes."""
    _check_batch_size(batch_size)
    if dims[0] != task.dim:
        raise ConfigError(f"model input width {dims[0]} != task dim {task.dim}")
    if dims[-1] != task.classes:
        raise ConfigError(f"model head width {dims[-1]} != task classes {task.classes}")
    rng = Rng(seed)
    model = init_model(dims, rng.child(0))
    masks = GradientMaskSet.all_full(model)
    penalty = resolve_penalty(model.layers, RegConfig(lam=0.0, norm="none"), masks)
    for _ in _train(model, masks, penalty, task.source, optim, batch_size,
                    rng.child(_STREAM_SHUFFLE)):
        pass
    return model


def _check_config(model: ModelParams, task: TaskPair, cfg: FineTuneConfig) -> None:
    """Before any scoring, refuse a k, regular set or subsets_n ``model`` or ``task`` cannot
    hold, and a ``model`` whose input width is not the task's."""
    if model.dims[0] != task.dim:
        raise ConfigError(f"model input width {model.dims[0]} != task dim {task.dim}")
    if cfg.variant in SELECTION_VARIANTS:
        check_budget([l.weight.shape for l in model.layers], cfg.k, cfg.variant)
    resolve_regular_layers(len(model.layers), cfg.reg.regular)
    n, samples = cfg.subsets_n, len(task.target_train)
    if 2 * n > samples:
        raise ConfigError(f"subsets_n={n} needs {2 * n} samples (2 per subset), got {samples}")


def _row_path(pre: ModelParams, variant: str) -> bool:
    """Whether a run on ``pre`` whose masks below the head are of ``variant`` forwards on
    the row path: row masks (the ``head`` variant's empty ones included), three or more
    layers, and at least ``_ROW_PATH_MIN_WEIGHTS`` weights in layer 1."""
    return (variant in ("row", "head") and len(pre.layers) >= 3
            and pre.layers[1].weight.size >= _ROW_PATH_MIN_WEIGHTS)


def _with_head_mask(masks: GradientMaskSet, pre: ModelParams, task: TaskPair) -> GradientMaskSet:
    """``masks`` under a full head mask shaped like the head a run draws for ``task``
    (``reinit_head``)."""
    head = full_mask((task.target_train.num_classes, pre.feature_dim))
    return GradientMaskSet((*masks.layers[:-1], head))


class _Scored(NamedTuple):
    """A run's share of ``_score``: the chosen subset's index, the masks it trains under,
    whether it takes the row path (``_row_path``, decided once per run) and, for the
    first config alone on that path, ``train_z1``: layer 1's pre-activation of the
    training set that its group's selection wrote, for that run's training anchor
    (``_anchored``)."""
    subset_index: int
    masks: GradientMaskSet
    row_path: bool
    train_z1: np.ndarray | None


def _score_group(pre: ModelParams, task: TaskPair, configs: list[FineTuneConfig],
                 z1: np.ndarray | None) -> tuple[int, list[GradientMaskSet]]:
    """Subset selection, then, unless no variant is a selection variant, the chosen subset's
    scores at ``pre`` (``scl_gradients``), for ``configs`` that agree on what those read of
    a config (``tau``, ``subsets_n`` and ``seed``): the chosen subset's index and each
    config's masks (``compute_mask_set``, or for ``full`` and ``head``, which read no
    scores, ``all_full`` and ``head_only``), under a full head mask (``_with_head_mask``).
    Given ``z1``, selection writes layer 1's pre-activation of the training set there,
    and the scores take the chosen subset's rows of it. The scores are freed on return."""
    cfg, train = configs[0], task.target_train
    subsets = partition_subsets(train, cfg.subsets_n, Rng(cfg.seed).child(_STREAM_SUBSET))
    subset_index, mask_data = select_mask_subset(pre, train, subsets, cfg.tau, z1)
    gradients = None
    if any(c.variant in SELECTION_VARIANTS for c in configs):
        gradients = scl_gradients(pre, mask_data.x, mask_data.y, cfg.tau,
                                  None if z1 is None else z1[subsets[subset_index]])
    built = {"full": GradientMaskSet.all_full, "head": GradientMaskSet.head_only}
    return subset_index, [_with_head_mask(built[c.variant](pre) if c.variant in built
                                          else compute_mask_set(gradients, c.k, c.variant),
                                          pre, task) for c in configs]


def _score(pre: ModelParams, task: TaskPair, configs: list[FineTuneConfig]) -> list[_Scored]:
    """The work at ``pre`` the runs of ``configs`` read, each thing once: ``_check_config``
    of every config, then one ``_score_group`` per distinct ``(tau, subsets_n, seed)``,
    each freeing its scores before the next starts. Returns each config's ``_Scored``;
    where the first config takes the row path, its group's selection writes layer 1's
    pre-activation of the training set into the first ``_Scored``'s ``train_z1``."""
    for cfg in configs:
        _check_config(pre, task, cfg)
    row_paths = [_row_path(pre, cfg.variant) for cfg in configs]
    z1 = np.empty((len(task.target_train), pre.dims[2])) if row_paths and row_paths[0] else None
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.tau, cfg.subsets_n, cfg.seed), []).append(i)
    scored = {}
    for members in groups.values():
        subset_index, masks = _score_group(pre, task, [configs[i] for i in members],
                                           z1 if members[0] == 0 else None)
        scored.update((i, _Scored(subset_index, m, row_paths[i], z1 if i == 0 else None))
                      for i, m in zip(members, masks))
    return [scored[i] for i in range(len(configs))]


def _anchored(pre: ModelParams, task: TaskPair,
              scored: _Scored) -> tuple[int, GradientMaskSet, RowAnchor | None]:
    """A run's scoring result: the subset index, the masks and, on the row path, the
    ``RowAnchor`` of ``pre`` over the target training set, from ``train_z1`` when it is
    there (``row_anchor`` then adds layer 0's activation) or else from a forward of its
    own. Else the anchor is None."""
    anchor = row_anchor(pre, task.target_train.x, scored.train_z1) if scored.row_path else None
    return scored.subset_index, scored.masks, anchor


def finetune_masks(pre: ModelParams, task: TaskPair,
                   cfg: FineTuneConfig) -> tuple[int, GradientMaskSet, RowAnchor | None]:
    """``_check_config``, subset selection, then (unless the variant is ``full`` or
    ``head``, whose masks read no scores) the subset's scores at ``pre``
    (``scl_gradients``) and the one mask builder ``compute_mask_set``.
    The head plays no part in scoring; its mask is full (``_with_head_mask``). Returns the
    chosen subset's index, the masks a finetune run with this config trains under, and,
    where the run takes the row path (``_row_path``), the ``RowAnchor`` of ``pre`` over the
    target training set: selection writes layer 1's pre-activation of the set as it
    forwards the subsets, which cover it, scoring takes the chosen subset's rows of it,
    and ``row_anchor`` takes it whole, adding layer 0's activation of the set once
    scoring's gradients are freed. Else the anchor is None."""
    (scored,) = _score(pre, task, [cfg])
    return _anchored(pre, task, scored)


def _finetune_with_masks(pre: ModelParams, task: TaskPair, cfg: FineTuneConfig,
                         score: Callable) -> tuple[ModelParams, TrainReport]:
    """Score (``score()``: ``finetune_masks``, or in a sweep ``_anchored`` of the run's
    ``_Scored``), then draw the run's one copy of ``pre`` under a new head
    (``reinit_head``), train it towards its values now and return it as a
    ``ModelParams``. The anchor is ``pre``'s layers below the head, which are only read
    (and viewed by the penalty), and a copy of the new head.

    The run takes the row path exactly when ``score`` returns the ``RowAnchor`` of ``pre``
    over the target training set, so ``_row_path`` is decided once per run, in ``score``.
    There the copy is a ``RowParams`` that trains under the masks with ``rows_held=2``,
    the anchor holds copies of its rows of layers 0 and 1 in place of ``pre``'s layers,
    and the run forwards from ``RowAnchor``s alone, so it forms only layer 0's trained
    columns. It trains every epoch first, keeping each epoch's trained vector, then frees
    the training set's anchor, builds the test set's and evaluates each kept vector in
    turn: the two anchors are never alive together. The dense path evaluates after each
    epoch. This frame alone holds the anchors, and frees them before it writes the copy's
    layers 0 and 1 out whole for the report: ``score`` takes no arguments because an
    anchor passed in would stay referenced by the caller through the whole run."""
    subset_index, masks, train_rows = score()
    rows = None if train_rows is None else (masks.layers[0].index, masks.layers[1].index)
    model = reinit_head(pre, task.target_train.num_classes,  # once scoring freed its buffers
                        Rng(cfg.seed).child(_STREAM_HEAD), rows)
    held, run_masks = (0, masks) if rows is None else (2, replace(masks, rows_held=2))
    anchor = (*(l.copy() for l in model.layers[:held]), *pre.layers[held:-1],
              model.layers[-1].copy())
    epochs = _train(model, run_masks, resolve_penalty(anchor, cfg.reg, run_masks),
                    task.target_train, cfg.optim, cfg.batch_size,
                    Rng(cfg.seed).child(_STREAM_SHUFFLE), train_rows)
    stats, trained = [], []
    for epoch, lr, loss_r, ce, state in epochs:
        accuracy = math.nan if held else evaluate(model, task.target_test)
        stats.append(EpochStats(epoch, lr, loss_r, ce, accuracy))
        if held:
            trained.append(model.params.copy())
    del train_rows  # training is over, and its generator freed its own reference
    if held:
        test_rows = row_anchor(pre, task.target_test.x)
        for epoch in stats:  # each kept vector is freed once it is evaluated
            epoch.test_accuracy = evaluate(replace(model, params=trained.pop(0)),
                                           task.target_test, test_rows)
        del test_rows  # before the whole copy and the distances' temporaries
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
    return _finetune_with_masks(pre, task, cfg, lambda: finetune_masks(pre, task, cfg))


def linear_probe(pre: ModelParams, task: TaskPair,
                 cfg: FineTuneConfig) -> tuple[ModelParams, TrainReport]:
    """The head-only baseline: ``finetune`` under the ``head`` variant."""
    return finetune(pre, task, replace(cfg, variant="head"))


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
    values that give equal configs or print alike (the name of a run's files) are refused,
    and so is a sweep of an axis the base config's run does not read: ``k`` and ``subsets_n``
    under a variant whose masks read no scores, and the penalty's axes when it is off."""
    axis_type(axis)  # refuses an unknown axis
    if not values:
        raise ConfigError("values must be non-empty")
    unread = {}  # axis: (the setting that leaves it unread, where to sweep it instead)
    if base_cfg.variant not in SELECTION_VARIANTS:
        unread["k"] = unread["subsets_n"] = (f"variant {base_cfg.variant!r}",
                                             f"one of {', '.join(SELECTION_VARIANTS)}")
    if base_cfg.reg.lam == 0.0:
        unread["norm"] = unread["regular_blocks"] = "lambda 0", "a positive lambda"
    if base_cfg.reg.norm == "none":
        unread["lambda"] = unread["regular_blocks"] = "norm 'none'", "norm 'l1' or 'l2'"
    if axis in unread:
        setting, instead = unread[axis]
        raise ConfigError(f"{setting} reads no {axis}, so every {axis} value gives the same "
                          f"run; sweep {axis} under {instead}")
    configs = [_with_axis_value(base_cfg, axis, value) for value in values]
    for i, (value, cfg) in enumerate(zip(values, configs)):
        for earlier, twin in zip(values[:i], configs[:i]):
            if twin == cfg or str(earlier) == str(value):
                raise ConfigError(f"{axis} values {earlier!r} and {value!r} give the same "
                                  f"run or the same file name; give each value once")
        _check_config(pre, task, cfg)
    return configs


def ablate(pre: ModelParams, task: TaskPair, configs: list[FineTuneConfig]) -> list[TrainReport]:
    """The reports of ``finetune`` run once per config of a sweep (see sweep_configs), bit
    for bit, with the work at ``pre`` done once: ``_score`` selects and scores once per
    distinct ``(tau, subsets_n, seed)`` and builds every config's masks before the first
    run trains, so between runs the sweep holds masks alone. The first run, on the row
    path, takes selection's ``z1`` for its training anchor; later runs forward the
    training set for theirs. Each run pops its share as it starts and the sweep keeps no
    reference to it, so the run alone holds its anchor and masks."""
    shares = _score(pre, task, configs)
    shares.reverse()
    return [_finetune_with_masks(pre, task, cfg, lambda: _anchored(pre, task, shares.pop()))[1]
            for cfg in configs]


def write_report_json(report: TrainReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def write_report_csv(report: TrainReport, path: str | Path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "loss_R", "ce_loss", "test_acc"])
        for e in report.epochs:
            writer.writerow([e.epoch, repr(e.lr), repr(e.loss_r),
                             repr(e.ce_loss), repr(e.test_accuracy)])
