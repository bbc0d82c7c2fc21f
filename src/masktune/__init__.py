"""Row/column gradient-masked fine-tuning with pull-to-pretrained regularization."""

from .data import Dataset, ShiftConfig, TaskPair, gen_task, partition_subsets, select_mask_subset
from .harness import FineTuneConfig, TrainReport, ablate, evaluate, finetune, linear_probe, pretrain
from .linalg import Rng
from .losses import (
    Penalty,
    RegConfig,
    RegularSet,
    combined_grad,
    cross_entropy,
    reg_penalty,
    resolve_penalty,
    scl_loss,
)
from .masking import (
    GradientMaskSet,
    LayerMask,
    build_mask,
    brute_force_best_rows,
    compute_mask_set,
    mask_objective,
    retained_energy,
    row_scores,
    col_scores,
    topk_indices,
    trainable_fraction,
)
from .model import GradientSet, Layer, ModelParams, backward, forward, init_model
from .optim import AdamState, OptimConfig, cosine_warmup_lr, masked_adam_step

__all__ = [
    "AdamState", "Dataset", "FineTuneConfig", "GradientMaskSet", "GradientSet",
    "Layer", "LayerMask", "ModelParams", "OptimConfig", "Penalty", "RegConfig", "RegularSet",
    "Rng", "ShiftConfig", "TaskPair", "TrainReport", "ablate", "backward",
    "build_mask", "brute_force_best_rows", "col_scores", "combined_grad",
    "compute_mask_set", "cosine_warmup_lr", "cross_entropy", "evaluate",
    "finetune", "forward", "gen_task", "init_model", "linear_probe",
    "mask_objective", "masked_adam_step", "partition_subsets", "pretrain",
    "reg_penalty", "resolve_penalty", "retained_energy", "row_scores", "scl_loss",
    "select_mask_subset", "topk_indices", "trainable_fraction",
]
