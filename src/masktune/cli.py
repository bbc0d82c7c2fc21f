"""Command-line entry point: pretrain, finetune, mask-report, ablate.

Exit codes: 0 success, 2 invalid configuration or input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, masking
from .config import RunConfig, load_run_config
from .data import load_dataset_csv
from .errors import ConfigError, InputError, NumericError, ShapeError
from .fileio import atomic_open
from .model import ModelParams, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _output_path(path: str) -> Path:
    """The output path, once its directory is known to exist and the path is
    not itself a directory, so a run never trains only to fail at its last write."""
    out = Path(path)
    if not out.parent.is_dir():
        raise InputError(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise InputError(f"output path {out} is a directory")
    return out


def _load_pretrained(path: str, cfg: RunConfig) -> ModelParams:
    """The checkpoint at ``path``, once its dims are known to be the config's model.dims."""
    pre = load_checkpoint(path)
    if pre.dims != cfg.model_dims:
        raise ConfigError(f"checkpoint dims {pre.dims} != the config's model.dims {cfg.model_dims}")
    return pre


def cmd_pretrain(args) -> int:
    out = _output_path(args.out)
    cfg = load_run_config(args.config, args.seed)
    task = cfg.make_task()
    model = harness.pretrain(task, cfg.model_dims, cfg.pretrain_optim(), cfg.seed,
                             batch_size=cfg.pretrain["batch_size"])
    save_checkpoint(model, out)
    acc = harness.evaluate(model, task.source)
    print(f"pretrain: seed={cfg.seed} epochs={cfg.pretrain['epochs']} "
          f"source_accuracy={acc:.4f} checkpoint={args.out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    out = _output_path(args.out)
    cfg = load_run_config(args.config, args.seed)
    task = cfg.make_task()
    pre = _load_pretrained(args.checkpoint, cfg)
    ft_cfg = cfg.finetune_config()
    model, report = harness.finetune(pre, task, ft_cfg)
    report.config = {**report.config, "run_config": cfg.to_dict()}

    harness.write_report_json(report, out)
    harness.write_report_csv(report, out.with_suffix(".csv"))
    masking.save_masks(report.masks, out.with_suffix(".mask.json"))
    print(f"finetune: variant={ft_cfg.variant} k={ft_cfg.k} "
          f"final_accuracy={report.final_accuracy:.4f} "
          f"trainable_fraction={report.trainable_fraction:.4f} report={out}")
    return EXIT_OK


def cmd_mask_report(args) -> int:
    out = _output_path(args.out)
    pre = load_checkpoint(args.checkpoint)
    data = load_dataset_csv(args.data)
    gradients = masking.scl_gradients(pre, data.x, data.y, args.tau)
    masks = masking.masks_from_gradients(gradients, args.k, args.variant)

    layer_reports = []
    for i, (mask, h) in enumerate(zip(masks.layers, gradients)):
        rows, cols = mask.shape
        rec = {"layer": i, "shape": [rows, cols], "variant": mask.variant,
               "storage_bits": masking.storage_comparison(mask, args.k),
               "mask_objective": masking.mask_objective(h, mask),
               "retained_energy": masking.retained_energy(h, mask)}
        if args.verify_oracle and mask.variant == "row" and rows <= 8:
            best = masking.brute_force_best_rows(h, args.k)
            best_obj = masking.mask_objective(h, masking.LayerMask("row", (rows, cols), best))
            rec["oracle_gap"] = rec["mask_objective"] - best_obj
        layer_reports.append(rec)
        line = (f"layer {i} [{rows}x{cols}]: storage row={rec['storage_bits']['row']} "
                f"sparse={rec['storage_bits']['sparse']} dense={rec['storage_bits']['dense']} bits; "
                f"objective={rec['mask_objective']:.6g} retained={rec['retained_energy']:.6g}")
        if "oracle_gap" in rec:
            line += f" oracle_gap={rec['oracle_gap']:.6g}"
        print(line)

    doc = {"k": args.k, "variant": args.variant, "tau": args.tau,
           "layers": layer_reports,
           "mask": masking.masks_to_doc(masks)}
    with atomic_open(out) as fh:
        fh.write(json.dumps(doc, indent=1))
    return EXIT_OK


def _parse_values(axis: str, raw: str) -> list:
    parts = [p for p in raw.split(",") if p]
    if not parts:
        raise ConfigError("values must be a non-empty comma-separated list")
    convert = {"k": int, "regular_blocks": int, "subsets_n": int, "lambda": float}.get(axis, str)
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"values for axis {axis}: {exc}") from exc


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    values = _parse_values(args.axis, args.values)
    task = cfg.make_task()
    pre = _load_pretrained(args.checkpoint, cfg)
    configs = harness.sweep_configs(pre, task, cfg.finetune_config(), args.axis, values)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    reports = harness.ablate(pre, task, configs)

    combined = out_dir / "combined.csv"
    with atomic_open(combined, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "final_accuracy", "trainable_fraction",
                         "storage_bits", "final_loss_R"])
        for value, report in zip(values, reports):
            report.config = {**report.config, "run_config": cfg.to_dict()}
            harness.write_report_json(report, out_dir / f"{args.axis}_{value}.json")
            harness.write_report_csv(report, out_dir / f"{args.axis}_{value}.csv")
            writer.writerow([args.axis, value, repr(report.final_accuracy),
                             repr(report.trainable_fraction), report.storage_bits,
                             repr(report.epochs[-1].loss_r)])
            print(f"ablate {args.axis}={value}: final_accuracy={report.final_accuracy:.4f} "
                  f"trainable_fraction={report.trainable_fraction:.4f}")
    print(f"ablate: wrote {len(reports)} reports to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masktune",
        description="Row/column gradient-masked fine-tuning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a source model and write a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="masked fine-tuning from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("mask-report", help="mask, objective, and storage accounting")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset CSV (y,x0,...)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=masking.SELECTION_VARIANTS, default="row")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--verify-oracle", action="store_true")
    p.set_defaults(func=cmd_mask_report)

    p = sub.add_parser("ablate", help="sweep one hyperparameter axis")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the finite checks report a diverging run in one line, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
