"""Command-line entry point: pretrain, finetune, mask-report, ablate.

Exit codes: 0 success, 2 invalid configuration or input (a size that cannot be
allocated included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, losses, masking
from .config import RunConfig, load_run_config
from .data import load_dataset_csv
from .errors import ConfigError, InputError, NumericError, ShapeError
from .fileio import atomic_open, write_json
from .model import ModelParams, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _check_outputs(paths: list[Path], inputs: tuple[str, ...]) -> None:
    """Refuse output ``paths`` of which one is a directory, another's file, or one of the
    command's ``inputs`` (by path or as the same file), so a run never trains only to fail
    late or to overwrite its own output or input."""
    for p in paths:
        if p.is_dir():
            raise InputError(f"output path {p} is a directory")
    if len(set(paths)) < len(paths):
        raise InputError(f"output paths {', '.join(map(str, paths))} name one file twice")
    for out in paths:
        for inp in map(Path, inputs):
            if out.resolve() == inp.resolve() or (
                    out.exists() and inp.exists() and os.path.samefile(out, inp)):
                raise InputError(f"output path {out} is the command's input {inp}")


def _output_paths(path: str, *suffixes: str, inputs: tuple[str, ...]) -> list[Path]:
    """The output path and its siblings with ``suffixes``, once its directory exists and
    ``_check_outputs`` passes them."""
    out = Path(path)
    if not out.parent.is_dir():
        raise InputError(f"output directory {out.parent} does not exist")
    paths = [out, *(out.parent / (out.stem + suffix) for suffix in suffixes)]
    _check_outputs(paths, inputs)
    return paths


def _load_pretrained(path: str, cfg: RunConfig) -> ModelParams:
    """The checkpoint at ``path``, once its dims are known to be the config's model.dims."""
    pre = load_checkpoint(path)
    if pre.dims != cfg.model_dims:
        raise ConfigError(f"checkpoint dims {pre.dims} != the config's model.dims {cfg.model_dims}")
    return pre


def cmd_pretrain(args) -> int:
    [out] = _output_paths(args.out, inputs=(args.config,))
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
    out, csv_out, mask_out = _output_paths(args.out, ".csv", ".mask.json",
                                          inputs=(args.config, args.checkpoint))
    cfg = load_run_config(args.config, args.seed)
    task = cfg.make_task()
    pre = _load_pretrained(args.checkpoint, cfg)
    ft_cfg = cfg.finetune_config()
    model, report = harness.finetune(pre, task, ft_cfg)
    report.config = {**report.config, "run_config": cfg.to_dict()}

    harness.write_report_json(report, out)
    harness.write_report_csv(report, csv_out)
    masking.save_masks(report.masks, mask_out)
    print(f"finetune: variant={ft_cfg.variant} k={ft_cfg.k} "
          f"final_accuracy={report.final_accuracy:.4f} "
          f"trainable_fraction={report.trainable_fraction:.4f} report={out}")
    return EXIT_OK


def cmd_mask_report(args) -> int:
    [out] = _output_paths(args.out, inputs=(args.checkpoint, args.data))
    losses.check_tau(args.tau)
    pre = load_checkpoint(args.checkpoint)
    masking.check_budget([l.weight.shape for l in pre.layers], args.k, args.variant)
    data = load_dataset_csv(args.data)
    # no label repeats: no anchor has a positive, so every score would be 0 (np.unique
    # would import numpy.ma on its first call, 1 MB that stays for the command)
    if np.diff(np.sort(data.y)).all():
        raise InputError("no label of the data repeats, so every contrastive gradient is "
                         "zero and every score ties; give at least two rows of some class")
    gradients = masking.scl_gradients(pre, data.x, data.y, args.tau)
    masks = masking.compute_mask_set(gradients, args.k, args.variant)

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
    write_json(doc, out)
    return EXIT_OK


def _parse_values(axis: str, raw: str) -> list:
    convert = harness.axis_type(axis)
    parts = [p for p in raw.split(",") if p]
    if not parts:
        raise ConfigError("values must be a non-empty comma-separated list")
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
    combined = out_dir / "combined.csv"
    run_paths = [(out_dir / f"{args.axis}_{value}.json", out_dir / f"{args.axis}_{value}.csv")
                 for value in values]
    _check_outputs([combined, *(p for pair in run_paths for p in pair)],
                   (args.config, args.checkpoint))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    reports = harness.ablate(pre, task, configs)

    with atomic_open(combined, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "final_accuracy", "trainable_fraction",
                         "storage_bits", "final_loss_R"])
        for value, report, (json_out, csv_out) in zip(values, reports, run_paths):
            report.config = {**report.config, "run_config": cfg.to_dict()}
            harness.write_report_json(report, json_out)
            harness.write_report_csv(report, csv_out)
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

    p = sub.add_parser("finetune", help="masked fine-tuning from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("mask-report", help="mask, objective, and storage accounting")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset CSV (y,x0,...)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=masking.SELECTION_VARIANTS, default="row")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--verify-oracle", action="store_true")

    p = sub.add_parser("ablate", help="sweep one hyperparameter axis")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    return parser


# built once, at import: a parser is cyclic garbage that only the cyclic collector frees
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command. Its ``cmd_<name>`` is looked up when it runs, not bound when the
    parser is built, so rebinding that module attribute (as a tracer does) takes effect."""
    args = _PARSER.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # the finite checks report a diverging run in one line, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(args)
    except (ConfigError, InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size in the input that no allocation can hold
        print(f"error: a size the input asks for cannot be allocated: "
              f"{exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
