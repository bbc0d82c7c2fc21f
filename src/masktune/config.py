"""JSON run configuration: schema validation and conversion to typed configs.

Unknown keys are hard errors so hyperparameter typos fail loudly instead of
silently falling back to defaults. Every number in the schema is a count, a
rate, a width, a seed or a scale, so each must be finite and non-negative.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import ShiftConfig, TaskPair, gen_task
from .errors import ConfigError
from .harness import FineTuneConfig
from .losses import RegConfig, RegularSet
from .model import param_offsets
from .optim import OptimConfig

_TASK_KEYS = {"dim": int, "classes": int, "per_class": int,
              "noise_sigma": (int, float), "shift": dict}
_SHIFT_KEYS = {"rotation_seed": int, "magnitude": (int, float)}
_MODEL_KEYS = {"dims": list}
_PRETRAIN_KEYS = {"epochs": int, "base_lr": (int, float), "warmup_epochs": int,
                  "beta1": (int, float), "beta2": (int, float),
                  "epsilon": (int, float), "batch_size": int}
_REGULAR_KEYS = {"last_l": int, "include_embedding": bool, "include_head": bool}
_FINETUNE_KEYS = {"k": int, "variant": str, "lambda": (int, float), "norm": str,
                  "regular": dict, "tau": (int, float), "subsets_n": int,
                  "batch_size": int, "epochs": int, "base_lr": (int, float),
                  "warmup_epochs": int, "beta1": (int, float),
                  "beta2": (int, float), "epsilon": (int, float)}
_TOP_KEYS = {"seed": int, "task": dict, "model": dict,
             "pretrain": dict, "finetune": dict}


def _check_section(section: dict, schema: dict, where: str,
                   required: set[str] | None = None) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"{where}: unknown key {key!r}")
        expected = schema[key]
        if (expected is not bool and isinstance(value, bool)) or not isinstance(value, expected):
            raise ConfigError(f"{where}.{key}: wrong type {type(value).__name__}")
        if isinstance(value, (int, float)) and not 0 <= value < math.inf:
            raise ConfigError(f"{where}.{key}: must be finite and >= 0, got {value}")
    for key in (required if required is not None else schema):
        if key not in section:
            raise ConfigError(f"{where}: missing key {key!r}")


def _optim_config(section: dict) -> OptimConfig:
    """Adam settings of a pretrain or finetune section; OptimConfig holds the defaults."""
    optional = {key: float(section[key]) for key in ("beta1", "beta2", "epsilon") if key in section}
    if "warmup_epochs" in section:
        optional["warmup_epochs"] = section["warmup_epochs"]
    return OptimConfig(base_lr=float(section["base_lr"]), total_epochs=section["epochs"],
                       **optional)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    task: dict
    model_dims: list[int]
    pretrain: dict
    finetune: dict

    def make_task(self) -> TaskPair:
        t = self.task
        shift = ShiftConfig(t["shift"]["rotation_seed"], float(t["shift"]["magnitude"]))
        return gen_task(t["dim"], t["classes"], t["per_class"],
                        float(t["noise_sigma"]), shift, self.seed)

    def pretrain_optim(self) -> OptimConfig:
        return _optim_config(self.pretrain)

    def finetune_config(self) -> FineTuneConfig:
        f = self.finetune
        # the schema keys of finetune.regular are RegularSet's field names
        reg = RegConfig(lam=float(f["lambda"]), norm=f["norm"],
                        regular=RegularSet(**f["regular"]))
        return FineTuneConfig(k=f["k"], variant=f["variant"], reg=reg,
                              tau=float(f["tau"]), subsets_n=f["subsets_n"],
                              optim=_optim_config(f), batch_size=f["batch_size"],
                              seed=self.seed)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "task": self.task,
                "model": {"dims": self.model_dims},
                "pretrain": self.pretrain, "finetune": self.finetune}


def parse_run_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    _check_section(doc, _TOP_KEYS, "config")
    _check_section(doc["task"], _TASK_KEYS, "task")
    _check_section(doc["task"]["shift"], _SHIFT_KEYS, "task.shift")
    _check_section(doc["model"], _MODEL_KEYS, "model")
    _check_section(doc["pretrain"], _PRETRAIN_KEYS, "pretrain",
                   required={"epochs", "base_lr", "batch_size"})
    _check_section(doc["finetune"], _FINETUNE_KEYS, "finetune",
                   required={"k", "variant", "lambda", "norm", "regular", "tau",
                             "subsets_n", "batch_size", "epochs", "base_lr"})
    _check_section(doc["finetune"]["regular"], _REGULAR_KEYS, "finetune.regular",
                   required={"last_l"})
    dims = doc["model"]["dims"]
    if not all(type(d) is int and d >= 1 for d in dims) or len(dims) < 2:
        raise ConfigError("model.dims must be a list of at least two positive ints")
    # numpy refuses an array of more bytes than an index holds with a ValueError or an
    # OverflowError; one it can index but cannot allocate raises MemoryError (cli.main)
    t = doc["task"]
    for what, entries in (("model.dims", param_offsets(list(zip(dims[1:], dims)))[-1]),
                          ("task", t["classes"] * t["per_class"] * max(t["dim"], 1))):
        if 8 * entries > sys.maxsize:
            raise ConfigError(f"{what} asks for an array of {entries} float64 entries, more "
                              f"than an array can hold")
    seed = doc["seed"] if seed_override is None else int(seed_override)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return RunConfig(seed=seed, task=doc["task"], model_dims=dims,
                     pretrain=doc["pretrain"], finetune=doc["finetune"])


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """The run config of a JSON file; a file that cannot be read, is not UTF-8 text (a
    checkpoint, say), is not JSON or nests deeper than the parser's recursion limit
    raises ConfigError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(doc, seed_override)
