"""Benchmark workloads: the inputs each one gets and the CLI commands it runs.

Every input is derived from the seed alone. Run as a script, this module
writes one workload's inputs into a directory, which is the benchmark's
set-up step:

    python3 bench/workloads.py --workload wide-finetune --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The acceptance configuration (tests/test_acceptance.py): at seed 7 its
# finetune reaches the pinned accuracy 0.94125.
REF_CONFIG = {
    "task": {"dim": 16, "classes": 4, "per_class": 200, "noise_sigma": 0.4,
             "shift": {"rotation_seed": 5, "magnitude": 2.0}},
    "model": {"dims": [16, 32, 32, 4]},
    "pretrain": {"epochs": 30, "base_lr": 0.05, "warmup_epochs": 2, "batch_size": 32},
    "finetune": {"k": 2, "variant": "row", "lambda": 0.01, "norm": "l2",
                 "regular": {"last_l": 1}, "tau": 0.5, "subsets_n": 4,
                 "epochs": 40, "base_lr": 0.02, "warmup_epochs": 2, "batch_size": 32},
}
REF_PINNED_ACCURACY = {7: 0.94125}

# The 768-wide hidden layers of the paper's storage example.
WIDE_CONFIG = {
    "task": {"dim": 256, "classes": 10, "per_class": 100, "noise_sigma": 0.4,
             "shift": {"rotation_seed": 5, "magnitude": 2.0}},
    "model": {"dims": [256, 768, 768, 10]},
    "pretrain": {"epochs": 2, "base_lr": 0.01, "warmup_epochs": 0, "batch_size": 32},
    "finetune": {"k": 2, "variant": "row", "lambda": 0.01, "norm": "l2",
                 "regular": {"last_l": 1}, "tau": 0.5, "subsets_n": 4,
                 "epochs": 3, "base_lr": 0.02, "warmup_epochs": 0, "batch_size": 32},
}
MASK_REPORT_VARIANTS = ("row", "sparse")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must leave behind."""
    kind: str  # pretrain | finetune | ablate | mask-report
    argv: tuple[str, ...]
    artifacts: tuple[Path, ...]  # byte-identical on every repeat
    samples: int  # rows processed: epochs x training rows, or rows scored
    report: Path | None = None  # report.json holding final_accuracy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    write_inputs: Callable[[int, Path], None]
    commands: Callable[[Path, Path], list[Command]]
    pinned_accuracy: dict[int, float] = field(default_factory=dict)


def _samples(config: dict) -> int:
    return config["task"]["classes"] * config["task"]["per_class"]


def _write_config(base: dict, seed: int, path: Path) -> None:
    path.write_text(json.dumps({"seed": seed, **base}, indent=1))


def _write_wide_checkpoint(seed: int, path: Path) -> None:
    from masktune.model import init_model, save_checkpoint
    save_checkpoint(init_model(WIDE_CONFIG["model"]["dims"], seed), path)


def _pretrain(config: dict, inp: Path, out: Path) -> Command:
    return Command("pretrain",
                   ("pretrain", "--config", str(inp / "run.json"), "--out", str(out / "model.json")),
                   (out / "model.json",), config["pretrain"]["epochs"] * _samples(config))


def _finetune(config: dict, inp: Path, checkpoint: Path, out: Path) -> Command:
    return Command("finetune",
                   ("finetune", "--config", str(inp / "run.json"), "--checkpoint", str(checkpoint),
                    "--out", str(out / "report.json")),
                   (out / "report.csv", out / "report.mask.json"),
                   config["finetune"]["epochs"] * _samples(config), out / "report.json")


def _ref_inputs(seed: int, inp: Path) -> None:
    _write_config(REF_CONFIG, seed, inp / "run.json")


def _ref_commands(inp: Path, out: Path) -> list[Command]:
    variants = ("row", "col", "sparse")
    sweep = out / "ablate"
    ablate = Command(
        "ablate",
        ("ablate", "--config", str(inp / "run.json"), "--checkpoint", str(out / "model.json"),
         "--axis", "variant", "--values", ",".join(variants), "--out-dir", str(sweep)),
        (sweep / "combined.csv",) + tuple(sweep / f"variant_{v}.csv" for v in variants),
        len(variants) * REF_CONFIG["finetune"]["epochs"] * _samples(REF_CONFIG))
    return [_pretrain(REF_CONFIG, inp, out),
            _finetune(REF_CONFIG, inp, out / "model.json", out),
            ablate]


def _wide_finetune_inputs(seed: int, inp: Path) -> None:
    _write_config(WIDE_CONFIG, seed, inp / "run.json")
    _write_wide_checkpoint(seed, inp / "model.json")


def _wide_pretrain_inputs(seed: int, inp: Path) -> None:
    _write_config(WIDE_CONFIG, seed, inp / "run.json")


def _wide_mask_report_inputs(seed: int, inp: Path) -> None:
    from masktune.data import ShiftConfig, gen_task, save_dataset_csv
    _write_wide_checkpoint(seed, inp / "model.json")
    t = WIDE_CONFIG["task"]
    task = gen_task(t["dim"], t["classes"], t["per_class"], t["noise_sigma"],
                    ShiftConfig(**t["shift"]), seed)
    save_dataset_csv(task.target_train, inp / "target.csv")


def _wide_mask_report_commands(inp: Path, out: Path) -> list[Command]:
    return [Command("mask-report",
                    ("mask-report", "--checkpoint", str(inp / "model.json"),
                     "--data", str(inp / "target.csv"), "--k", "2", "--variant", variant,
                     "--tau", "0.5", "--out", str(out / f"mask_{variant}.json")),
                    (out / f"mask_{variant}.json",), _samples(WIDE_CONFIG))
            for variant in MASK_REPORT_VARIANTS]


WORKLOADS = {w.name: w for w in (
    Workload("ref-pipeline",
             "acceptance config: tiny matrices, so per-step Python overhead dominates; "
             "pretrain, finetune, then a row/col/sparse ablation; pinned accuracy at seed 7",
             _ref_inputs, _ref_commands, REF_PINNED_ACCURACY),
    Workload("wide-finetune",
             "768-wide row k=2 finetune: dense masked Adam, penalty and gradients dominate, "
             "which is what index-native masked training would remove",
             _wide_finetune_inputs,
             lambda inp, out: [_finetune(WIDE_CONFIG, inp, inp / "model.json", out)]),
    Workload("wide-pretrain",
             "768-wide unmasked pretrain with lambda 0 plus the JSON checkpoint write: "
             "every entry trains, so a mask-sparsity optimisation should not move it",
             _wide_pretrain_inputs,
             lambda inp, out: [_pretrain(WIDE_CONFIG, inp, out)]),
    Workload("wide-mask-report",
             "768-wide mask-report (row, sparse) on a 1000-row CSV: the only workload where "
             "contrastive scoring, mask building and CSV loading do most of the work",
             _wide_mask_report_inputs, _wide_mask_report_commands),
)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # set-up includes importing the package, the start-up cost every CLI run pays
    sys.path.insert(0, str(SRC))
    import masktune  # noqa: F401
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].write_inputs(args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
