"""Row/column gradient-masked fine-tuning with pull-to-pretrained regularization.

The package root exports what a run needs: the task, the model, the configs
and the pipelines. The parts they are built from stay in their modules.
"""

from .data import Dataset, ShiftConfig, TaskPair, gen_task
from .harness import (FineTuneConfig, TrainReport, ablate, evaluate, finetune, linear_probe,
                      pretrain, sweep_configs)
from .losses import RegConfig, RegularSet
from .masking import GradientMaskSet, LayerMask
from .model import Layer, ModelParams, init_model, load_checkpoint, save_checkpoint
from .optim import OptimConfig

__all__ = [
    "Dataset", "FineTuneConfig", "GradientMaskSet", "Layer", "LayerMask", "ModelParams",
    "OptimConfig", "RegConfig", "RegularSet", "ShiftConfig", "TaskPair", "TrainReport",
    "ablate", "evaluate", "finetune", "gen_task", "init_model", "linear_probe",
    "load_checkpoint", "pretrain", "save_checkpoint", "sweep_configs",
]
