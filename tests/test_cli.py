import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masktune import cli, data, harness, masking, model
from masktune.cli import main
from masktune.config import parse_run_config
from masktune.data import save_dataset_csv, gen_task, ShiftConfig
from masktune.errors import ConfigError
from masktune.model import init_model, layer_roles, load_checkpoint, save_checkpoint


BASE_CONFIG = {
    "seed": 11,
    "task": {
        "dim": 6,
        "classes": 3,
        "per_class": 12,
        "noise_sigma": 0.15,
        "shift": {"rotation_seed": 7, "magnitude": 0.6},
    },
    "model": {"dims": [6, 8, 8, 3]},
    "pretrain": {"epochs": 8, "base_lr": 0.05, "warmup_epochs": 1, "batch_size": 12},
    "finetune": {
        "k": 2,
        "variant": "row",
        "lambda": 0.01,
        "norm": "l2",
        "regular": {"last_l": 1},
        "tau": 0.5,
        "subsets_n": 2,
        "batch_size": 12,
        "epochs": 5,
        "base_lr": 0.02,
        "warmup_epochs": 1,
    },
}


def count_calls(monkeypatch, func) -> list:
    """Count calls to func through every masktune module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(func.__name__)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("masktune") and vars(mod).get(func.__name__) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def record_finetune(monkeypatch) -> list:
    """Record the (model, report) pair of every harness.finetune call."""
    runs = []
    finetune = harness.finetune

    def recorded(*args):
        runs.append(finetune(*args))
        return runs[-1]

    monkeypatch.setattr(harness, "finetune", recorded)
    return runs


def saved_masks_doc(report) -> dict:
    """The document save_masks writes for the masks a run trained under."""
    return json.loads(json.dumps(masking.masks_to_doc(report.masks)))


def write_target_csv(path) -> None:
    task = gen_task(6, 3, 12, 0.15, ShiftConfig(7, 0.6), seed=11)
    save_dataset_csv(task.target_train, path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Config + checkpoint produced once through the real CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    ckpt = root / "model.json"
    assert main(["pretrain", "--config", str(cfg), "--out", str(ckpt)]) == 0
    return cfg, ckpt


def test_main_runs_the_command_bound_when_it_runs_without_building_a_parser(monkeypatch):
    # the parser is built once, at import, and main looks cmd_<name> up on each call, so
    # a rebound command (as a tracer wraps it) is the one that runs
    calls = []
    monkeypatch.setattr(cli, "build_parser", None)
    monkeypatch.setattr(cli, "cmd_pretrain", lambda args: calls.append(args) or 0)
    assert main(["pretrain", "--config", "run.json", "--out", "model.ckpt"]) == 0
    assert [(a.config, a.out, a.seed) for a in calls] == [("run.json", "model.ckpt", None)]


class TestParseConfig:
    def test_round_trip(self):
        rc = parse_run_config(copy.deepcopy(BASE_CONFIG))
        assert rc.seed == 11
        assert rc.finetune_config().k == 2
        assert rc.pretrain_optim().total_epochs == 8

    def test_omitted_optional_keys_take_the_defaults(self):
        implicit = copy.deepcopy(BASE_CONFIG)
        explicit = copy.deepcopy(BASE_CONFIG)
        for section in ("pretrain", "finetune"):
            del implicit[section]["warmup_epochs"]
            explicit[section].update(warmup_epochs=0, beta1=0.9, beta2=0.999, epsilon=1e-8)
        explicit["finetune"]["regular"].update(include_embedding=True, include_head=True)
        a, b = parse_run_config(implicit), parse_run_config(explicit)
        assert a.finetune_config() == b.finetune_config()
        assert a.pretrain_optim() == b.pretrain_optim()

    def test_integer_optimizer_values_become_floats(self):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["finetune"].update(base_lr=1, beta1=0, beta2=0, epsilon=1)
        optim = parse_run_config(doc).finetune_config().optim
        values = (optim.base_lr, optim.beta1, optim.beta2, optim.epsilon)
        assert values == (1.0, 0.0, 0.0, 1.0)
        assert all(type(v) is float for v in values)

    def test_seed_override(self):
        rc = parse_run_config(copy.deepcopy(BASE_CONFIG), seed_override=99)
        assert rc.seed == 99

    def test_unknown_key_names_field(self):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["finetune"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_run_config(doc)

    def test_missing_key_names_field(self):
        doc = copy.deepcopy(BASE_CONFIG)
        del doc["finetune"]["tau"]
        with pytest.raises(ConfigError, match="tau"):
            parse_run_config(doc)

    def test_wrong_type_names_field(self):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["task"]["classes"] = "three"
        with pytest.raises(ConfigError, match="classes"):
            parse_run_config(doc)

    def test_bool_is_not_int(self):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config(doc)

    def test_bad_dims(self):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["model"]["dims"] = [6]
        with pytest.raises(ConfigError):
            parse_run_config(doc)


class TestPretrainCommand:
    def test_reruns_byte_identical(self, trained, tmp_path):
        cfg, ckpt = trained
        again = tmp_path / "again.json"
        assert main(["pretrain", "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == ckpt.read_bytes()

    def test_evaluates_once(self, trained, tmp_path, monkeypatch):
        cfg, _ = trained
        calls = count_calls(monkeypatch, harness.evaluate)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 0
        assert calls == ["evaluate"]

    def test_seed_flag_changes_weights(self, trained, tmp_path):
        cfg, ckpt = trained
        other = tmp_path / "other.json"
        assert main(["pretrain", "--config", str(cfg), "--out", str(other),
                     "--seed", "42"]) == 0
        a = load_checkpoint(ckpt)
        b = load_checkpoint(other)
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = copy.deepcopy(BASE_CONFIG)
        doc["pretrain"]["epoch"] = 5  # typo
        bad.write_text(json.dumps(doc))
        assert main(["pretrain", "--config", str(bad),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "epoch" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["pretrain", "--config", str(missing),
                     "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate"])
def test_a_checkpoint_given_as_the_config_exits_2_and_writes_nothing(trained, tmp_path, capsys,
                                                                      command):
    # a binary checkpoint is not UTF-8 text: the config reader refuses it, no traceback
    _, ckpt = trained
    inputs = [tmp_path / "model.ckpt"]
    inputs[0].write_bytes(ckpt.read_bytes())
    with pytest.raises(UnicodeDecodeError):
        inputs[0].read_bytes().decode("utf-8")
    argv = {"pretrain": ["pretrain", "--config", str(inputs[0]), "--out", str(tmp_path / "m.ckpt")],
            "finetune": ["finetune", "--config", str(inputs[0]), "--checkpoint", str(inputs[0]),
                         "--out", str(tmp_path / "report.json")],
            "ablate": ["ablate", "--config", str(inputs[0]), "--checkpoint", str(inputs[0]),
                       "--axis", "k", "--values", "1,2", "--out-dir", str(tmp_path / "sweep")]}
    assert_refused(argv[command], tmp_path, capsys, inputs)
    assert not (tmp_path / "sweep").exists()


class TestFinetuneCommand:
    def test_writes_report_trio(self, trained, tmp_path, monkeypatch):
        cfg, ckpt = trained
        runs = record_finetune(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["final_accuracy"] <= 1.0
        assert doc["config"]["run_config"]["seed"] == 11
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + BASE_CONFIG["finetune"]["epochs"]
        [(_, report)] = runs
        assert json.loads((tmp_path / "report.mask.json").read_text()) == saved_masks_doc(report)
        assert report.masks.total_storage_bits() == doc["storage_bits"]

    def test_reruns_byte_identical(self, trained, tmp_path):
        cfg, ckpt = trained
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / run / "report.json")]) == 0
        for name in ("report.json", "report.csv", "report.mask.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_a_rerun_after_another_run_is_byte_identical(self, tmp_path, monkeypatch):
        # row k=2, row k=3, then row k=2 again in one process: nothing a run leaves behind
        # (the row anchors included) reaches the next one; layer 1 of 192 x 192 weights
        # is wide enough for the row path
        dims = [6, 192, 192, 3]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_model(dims, seed=3), ckpt)
        anchors = count_calls(monkeypatch, model.row_anchor)
        for run, k in (("a", 2), ("b", 3), ("c", 2)):
            doc = copy.deepcopy(BASE_CONFIG)
            doc["model"]["dims"] = dims
            doc["finetune"]["k"] = k
            (tmp_path / run).mkdir()
            (tmp_path / run / "run.json").write_text(json.dumps(doc))
            assert main(["finetune", "--config", str(tmp_path / run / "run.json"),
                         "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / run / "report.json")]) == 0
        # each run took the row path: row_anchor built the training set's anchor from
        # scoring's forward, and the test set's
        assert len(anchors) == 6
        for name in ("report.csv", "report.mask.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
        assert (tmp_path / "a" / "report.mask.json").read_bytes() != \
            (tmp_path / "b" / "report.mask.json").read_bytes()

    def test_scores_once_and_saves_the_trained_masks(self, trained, tmp_path, monkeypatch):
        cfg, ckpt = trained
        subset_calls = count_calls(monkeypatch, data.select_mask_subset)
        scl_calls = count_calls(monkeypatch, masking.scl_gradients)
        runs = record_finetune(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        assert len(subset_calls) == 1
        assert len(scl_calls) == 1
        [(model, report)] = runs
        assert json.loads((tmp_path / "report.mask.json").read_text()) == saved_masks_doc(report)
        masks = report.masks
        assert masks.total_storage_bits() == json.loads(out.read_text())["storage_bits"]
        pre = load_checkpoint(ckpt)
        for mask, layer, before in zip(masks.layers[:-1], model.layers, pre.layers):
            frozen = mask.to_dense() == 0.0
            assert frozen.any()
            assert np.array_equal(layer.weight[frozen], before.weight[frozen])

    def test_k_too_large_exits_2_naming_layer(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        doc = copy.deepcopy(BASE_CONFIG)
        doc["finetune"]["k"] = 999
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        assert main(["finetune", "--config", str(big), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "layer" in capsys.readouterr().err


class TestMaskReportCommand:
    def test_storage_ordering_and_oracle(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        task = gen_task(6, 3, 12, 0.15, ShiftConfig(7, 0.6), seed=11)
        data_path = tmp_path / "target.csv"
        save_dataset_csv(task.target_train, data_path)
        out = tmp_path / "mask_report.json"
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--variant", "row", "--tau", "0.5",
                     "--out", str(out), "--verify-oracle"]) == 0
        printed = capsys.readouterr().out
        assert "layer 0" in printed
        doc = json.loads(out.read_text())
        for rec in doc["layers"][:-1]:  # head is full; storage menu still reported
            bits = rec["storage_bits"]
            assert bits["row"] <= bits["sparse"] <= bits["dense"]
        # greedy row selection matches exhaustive search on these small layers
        gaps = [rec.get("oracle_gap") for rec in doc["layers"] if "oracle_gap" in rec]
        assert gaps and all(abs(g) <= 1e-12 for g in gaps)

    def test_scores_once(self, trained, tmp_path, monkeypatch):
        _, ckpt = trained
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        scl_calls = count_calls(monkeypatch, masking.scl_gradients)
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "r.json")]) == 0
        assert len(scl_calls) == 1

    def test_bad_k_exits_2(self, trained, tmp_path):
        cfg, ckpt = trained
        task = gen_task(6, 3, 12, 0.15, ShiftConfig(7, 0.6), seed=11)
        data_path = tmp_path / "target.csv"
        save_dataset_csv(task.target_train, data_path)
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "999", "--out", str(tmp_path / "r.json")]) == 2


class TestBadInputFiles:
    def test_missing_checkpoint_exits_2(self, trained, tmp_path, capsys):
        cfg, _ = trained
        assert main(["finetune", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_without_layers_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        magic, header, payload = ckpt.read_bytes().split(b"\n", 2)
        head = json.loads(header)
        del head["dims"]  # the key that gives the layers' shapes
        broken = tmp_path / "broken.json"
        broken.write_bytes(b"\n".join([magic, json.dumps(head).encode(), payload]))
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(broken),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "dims" in capsys.readouterr().err

    def test_old_json_checkpoint_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        pre = load_checkpoint(ckpt)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"dims": pre.dims, "roles": layer_roles(len(pre.layers)),
                                   "layers": [{"weight": l.weight.tolist(),
                                               "bias": l.bias.tolist()} for l in pre.layers]}))
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(old),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "masktune-checkpoint 1" in capsys.readouterr().err

    def test_non_numeric_csv_cell_exits_2(self, trained, tmp_path, capsys):
        _, ckpt = trained
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        lines = data_path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
        data_path.write_text("\n".join(lines) + "\n")
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_header_only_csv_exits_2(self, trained, tmp_path, capsys):
        _, ckpt = trained
        data_path = tmp_path / "header.csv"
        data_path.write_text("y,x0,x1,x2,x3,x4,x5\n")
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "r.json")]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_empty_csv_exits_2(self, trained, tmp_path):
        _, ckpt = trained
        data_path = tmp_path / "empty.csv"
        data_path.write_text("")
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "r.json")]) == 2


class TestOutputPaths:
    """A missing output directory fails with exit 2 before any training."""

    def test_finetune(self, trained, tmp_path, monkeypatch, capsys):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, harness.finetune)
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "missing" / "report.json")]) == 2
        assert calls == []
        assert "output directory" in capsys.readouterr().err

    def test_finetune_out_is_a_directory(self, trained, tmp_path, monkeypatch, capsys):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, harness.finetune)
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)]) == 2
        assert calls == []
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("out, directory", [("r.csv", None), ("r.json", "r.csv"),
                                                ("r.json", "r.mask.json")])
    def test_finetune_report_sibling_collides_or_is_a_directory(
            self, trained, tmp_path, monkeypatch, capsys, out, directory):
        cfg, ckpt = trained
        if directory:
            (tmp_path / directory).mkdir()
        calls = count_calls(monkeypatch, harness.finetune)
        assert_refused(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / out)], tmp_path, capsys, [])
        assert calls == []

    def test_pretrain(self, trained, tmp_path, monkeypatch):
        cfg, _ = trained
        calls = count_calls(monkeypatch, harness.pretrain)
        assert main(["pretrain", "--config", str(cfg),
                     "--out", str(tmp_path / "missing" / "model.json")]) == 2
        assert calls == []

    def test_mask_report(self, trained, tmp_path, monkeypatch):
        _, ckpt = trained
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        calls = count_calls(monkeypatch, masking.scl_gradients)
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "missing" / "r.json")]) == 2
        assert calls == []

    def test_ablate_creates_out_dir_before_training(self, trained, tmp_path, monkeypatch):
        cfg, ckpt = trained
        out_dir = tmp_path / "nested" / "sweep"
        dir_existed = []
        ablate = harness.ablate

        def recorded(*args):
            dir_existed.append(out_dir.is_dir())
            return ablate(*args)

        monkeypatch.setattr(harness, "ablate", recorded)
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "k", "--values", "1", "--out-dir", str(out_dir)]) == 0
        assert dir_existed == [True]

    def test_ablate_out_dir_under_a_file(self, trained, tmp_path, monkeypatch):
        cfg, ckpt = trained
        (tmp_path / "file").write_text("")
        calls = count_calls(monkeypatch, harness.ablate)
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "k", "--values", "1",
                     "--out-dir", str(tmp_path / "file" / "sweep")]) == 2
        assert calls == []

    def test_ablate_run_file_is_a_directory(self, trained, tmp_path, monkeypatch, capsys):
        # refused before the first run, not after it wrote its reports
        cfg, ckpt = trained
        (tmp_path / "sweep" / "variant_col.json").mkdir(parents=True)
        calls = count_calls(monkeypatch, harness._finetune_with_masks)  # every run of a sweep
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", "variant", "--values", "row,col",
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])
        assert calls == []


def copy_inputs(trained, root) -> dict:
    """The config, the checkpoint and a target CSV, copied under ``root``."""
    cfg, ckpt = trained
    root.mkdir()
    inputs = {"config": root / "run.json", "checkpoint": root / "model.ckpt",
              "data": root / "target.csv"}
    inputs["config"].write_bytes(cfg.read_bytes())
    inputs["checkpoint"].write_bytes(ckpt.read_bytes())
    write_target_csv(inputs["data"])
    return inputs


def command_argv(command, inputs, out) -> list[str]:
    if command == "pretrain":
        return ["pretrain", "--config", str(inputs["config"]), "--out", str(out)]
    if command == "finetune":
        return ["finetune", "--config", str(inputs["config"]),
                "--checkpoint", str(inputs["checkpoint"]), "--out", str(out)]
    return ["mask-report", "--checkpoint", str(inputs["checkpoint"]),
            "--data", str(inputs["data"]), "--k", "2", "--out", str(out)]


class TestOutputIsAnInput:
    """An output that is one of the command's inputs, by its path or as the same file,
    exits 2 before any work and leaves every input as it was."""

    @pytest.mark.parametrize("command, name", [
        ("pretrain", "config"), ("finetune", "config"), ("finetune", "checkpoint"),
        ("mask-report", "checkpoint"), ("mask-report", "data")])
    @pytest.mark.parametrize("spelling", ["same", "dotted", "hard link", "symlink"])
    def test_refused(self, trained, tmp_path, capsys, command, name, spelling):
        inputs = copy_inputs(trained, tmp_path / "in")
        before = {p: p.read_bytes() for p in inputs.values()}
        target = inputs[name]
        if spelling == "same":
            out = target
        elif spelling == "dotted":
            out = target.parent / ".." / target.parent.name / target.name
        else:
            out = target.parent / ("link" + target.suffix)
            (os.link if spelling == "hard link" else os.symlink)(target, out)
        assert main(command_argv(command, inputs, out)) == 2
        assert "is the command's input" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in inputs.values()} == before

    def test_a_finetune_sibling_that_is_the_config_is_refused(self, trained, tmp_path, capsys):
        inputs = copy_inputs(trained, tmp_path / "in")
        inputs["config"] = inputs["config"].rename(tmp_path / "in" / "r.csv")
        before = inputs["config"].read_bytes()
        assert main(command_argv("finetune", inputs, tmp_path / "in" / "r.json")) == 2
        assert "is the command's input" in capsys.readouterr().err
        assert inputs["config"].read_bytes() == before

    @pytest.mark.parametrize("name, file", [("config", "combined.csv"),
                                            ("checkpoint", "k_1.json")])
    def test_an_ablate_output_that_is_an_input_is_refused(self, trained, tmp_path, capsys,
                                                         monkeypatch, name, file):
        inputs = copy_inputs(trained, tmp_path / "in")
        inputs[name] = inputs[name].rename(tmp_path / "in" / file)
        before = {p: p.read_bytes() for p in inputs.values()}
        calls = count_calls(monkeypatch, harness._finetune_with_masks)  # every run of a sweep
        assert main(["ablate", "--config", str(inputs["config"]),
                     "--checkpoint", str(inputs["checkpoint"]), "--axis", "k",
                     "--values", "1,2", "--out-dir", str(tmp_path / "in")]) == 2
        assert "is the command's input" in capsys.readouterr().err
        assert calls == []
        assert {p: p.read_bytes() for p in inputs.values()} == before

    def test_fresh_names_beside_the_inputs_are_written(self, trained, tmp_path):
        inputs = copy_inputs(trained, tmp_path / "in")
        for command in ("pretrain", "finetune", "mask-report"):
            assert main(command_argv(command, inputs, tmp_path / "in" / f"{command}.out")) == 0


class TestAtomicOutputs:
    """A command that fails while writing leaves no partial file and no temp file."""

    def test_mask_report(self, trained, tmp_path, monkeypatch):
        _, ckpt = trained
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)

        def boom(*args, **kwargs):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(json, "dumps", boom)
        with pytest.raises(RuntimeError):
            main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                  "--k", "2", "--out", str(tmp_path / "r.json")])
        assert list(tmp_path.iterdir()) == [data_path]

    def test_ablate_combined_csv(self, trained, tmp_path, monkeypatch):
        cfg, ckpt = trained
        out_dir = tmp_path / "sweep"
        write_json = harness.write_report_json
        calls = []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("serializer failed")
            return write_json(*args)

        monkeypatch.setattr(harness, "write_report_json", second_fails)
        with pytest.raises(RuntimeError):
            main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--axis", "k", "--values", "1,2", "--out-dir", str(out_dir)])
        assert sorted(p.name for p in out_dir.iterdir()) == ["k_1.csv", "k_1.json"]


class TestAblateCommand:
    def test_k_sweep_files(self, trained, tmp_path):
        cfg, ckpt = trained
        out_dir = tmp_path / "sweep"
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "k", "--values", "1,2", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "k_1.json").exists()
        assert (out_dir / "k_2.json").exists()
        lines = (out_dir / "combined.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("k,1,")
        assert lines[2].startswith("k,2,")

    @pytest.mark.parametrize("axis, values", [("lambda", "0.5,0.50,5e-1"), ("k", "1,2,01"),
                                              ("lambda", "0,-0")])
    def test_repeated_values_exit_2_without_training(self, trained, tmp_path, capsys,
                                                     monkeypatch, axis, values):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, harness._finetune_with_masks)  # every run of a sweep
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", axis, "--values", values,
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])
        assert calls == []

    def test_unknown_axis_exits_2(self, trained, tmp_path, capsys, monkeypatch):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, load_checkpoint)
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "nope", "--values", "1",
                     "--out-dir", str(tmp_path / "d")]) == 2
        assert "axis" in capsys.readouterr().err
        assert calls == []


def assert_refused(argv, tmp_path, capsys, inputs) -> str:
    """The command exits 2 with a one-line error, which it returns, and leaves no file but
    its inputs."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(inputs)
    return err


def write_config(tmp_path, section, key, value, nested=None) -> Path:
    doc = copy.deepcopy(BASE_CONFIG)
    (doc[section][nested] if nested else doc[section])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


# the calls that split, select and score a scoring subset
SCORING = (data.partition_subsets, data.select_mask_subset, masking.scl_gradients)


class TestContractHoles:
    """Invalid numbers, flags and checkpoints exit 2 before any output is written."""

    def finetune_argv(self, cfg, ckpt, tmp_path):
        return ["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "report.json")]

    def test_unknown_variant_exits_2_naming_the_choices(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "finetune", "variant", "probe")
        err = assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys,
                             [cfg])
        assert err == ("error: unknown variant 'probe'; "
                       "choose from row, col, sparse, full, head\n")

    def test_nan_tau_exits_2(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "finetune", "tau", math.nan)
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])

    def test_nan_tau_flag_of_mask_report_exits_2(self, trained, tmp_path, capsys):
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        assert_refused(["mask-report", "--checkpoint", str(trained[1]), "--data", str(data_path),
                        "--k", "2", "--tau", "nan", "--out", str(tmp_path / "r.json")],
                       tmp_path, capsys, [data_path])

    def test_infinite_base_lr_exits_2(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "finetune", "base_lr", math.inf)
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])

    def test_nan_noise_sigma_exits_2(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "task", "noise_sigma", math.nan)
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])

    def test_negative_last_l_exits_2(self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "finetune", "last_l", -1, nested="regular")
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])

    def test_negative_regular_blocks_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", "regular_blocks", "--values", "-1",
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])

    @pytest.mark.parametrize("lam, norm", [(0.0, "l2"), (0.01, "none")])
    def test_last_l_above_the_hidden_layers_exits_2_with_the_penalty_off(
            self, trained, tmp_path, capsys, lam, norm):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["finetune"].update({"lambda": lam, "norm": norm, "regular": {"last_l": 7}})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])

    @pytest.mark.parametrize("key, value, nested", [("k", 999, None), ("last_l", 7, "regular")])
    def test_finetune_refuses_before_any_scoring(self, trained, tmp_path, capsys, monkeypatch,
                                                 key, value, nested):
        cfg = write_config(tmp_path, "finetune", key, value, nested=nested)
        calls = [count_calls(monkeypatch, f) for f in SCORING]
        assert_refused(self.finetune_argv(cfg, trained[1], tmp_path), tmp_path, capsys, [cfg])
        assert calls == [[], [], []]

    @pytest.mark.parametrize("flag, value", [("--k", "999"), ("--k", "0"), ("--tau", "0"),
                                             ("--tau", "-1"), ("--tau", "nan"), ("--tau", "inf")])
    def test_mask_report_refuses_before_reading_the_data(self, trained, tmp_path, capsys,
                                                         monkeypatch, flag, value):
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        calls = [count_calls(monkeypatch, f) for f in (data.load_dataset_csv,
                                                       masking.scl_gradients)]
        flags = {"--k": "2", "--tau": "0.5", flag: value}
        assert_refused(["mask-report", "--checkpoint", str(trained[1]), "--data", str(data_path),
                        *(f"{f}={v}" for f, v in flags.items()),
                        "--out", str(tmp_path / "r.json")], tmp_path, capsys, [data_path])
        assert calls == [[], []]

    def test_mask_report_refuses_data_where_no_label_repeats(self, trained, tmp_path, capsys,
                                                             monkeypatch):
        # no anchor has a positive, so every contrastive gradient and score would be 0
        data_path = tmp_path / "target.csv"
        x = np.random.default_rng(0).normal(size=(20, 6))
        save_dataset_csv(data.Dataset(x, np.arange(20), 20), data_path)
        calls = count_calls(monkeypatch, masking.scl_gradients)
        err = assert_refused(["mask-report", "--checkpoint", str(trained[1]),
                              "--data", str(data_path), "--k", "2",
                              "--out", str(tmp_path / "r.json")], tmp_path, capsys, [data_path])
        assert "no label of the data repeats" in err
        assert calls == []

    def test_regular_blocks_above_the_hidden_layers_exits_2_with_lambda_0(
            self, trained, tmp_path, capsys):
        cfg = write_config(tmp_path, "finetune", "lambda", 0.0)
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(trained[1]),
                        "--axis", "regular_blocks", "--values", "0,7",
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [cfg])
        assert not (tmp_path / "sweep").exists()

    def test_non_numeric_ablate_value_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", "k", "--values", "two",
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])

    def test_negative_seed_flag_exits_2(self, trained, tmp_path, capsys):
        cfg, _ = trained
        assert_refused(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
                        "--seed", "-1"], tmp_path, capsys, [])

    def test_zero_pretrain_batch_size_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "pretrain", "batch_size", 0)
        assert_refused(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")],
                       tmp_path, capsys, [cfg])

    @pytest.mark.parametrize("width", [2, 4])
    def test_a_head_other_than_the_classes_exits_2_and_writes_no_checkpoint(
            self, tmp_path, capsys, width):
        # pretrain checks the head's width against the task's classes before it trains
        cfg = write_config(tmp_path, "model", "dims", [6, 8, 8, width])
        err = assert_refused(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")],
                             tmp_path, capsys, [cfg])
        assert f"model head width {width} != task classes 3" in err

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate"])
    def test_an_input_width_other_than_the_tasks_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "model", "dims", [5, 8, 8, 3])  # the task's dim is 6
        if command == "pretrain":
            argv = ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]
            inputs = [cfg]
        else:
            ckpt = tmp_path / "pre.ckpt"
            save_checkpoint(init_model([5, 8, 8, 3], 0), ckpt)
            argv, inputs = self.finetune_argv(cfg, ckpt, tmp_path), [cfg, ckpt]
            if command == "ablate":
                argv = ["ablate", "--config", str(cfg), "--checkpoint", str(ckpt), "--axis", "k",
                        "--values", "1,2", "--out-dir", str(tmp_path / "sweep")]
        err = assert_refused(argv, tmp_path, capsys, inputs)
        assert "model input width 5 != task dim 6" in err
        assert not (tmp_path / "sweep").exists()

    def test_bool_in_dims_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model", "dims", [6, 8, True, 3])
        assert_refused(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")],
                       tmp_path, capsys, [cfg])

    @pytest.mark.parametrize("command", ["finetune", "ablate"])
    def test_checkpoint_dims_must_match_the_config(self, trained, tmp_path, capsys, command):
        _, ckpt = trained
        cfg = write_config(tmp_path, "model", "dims", [6, 8, 3])
        argv = (self.finetune_argv(cfg, ckpt, tmp_path) if command == "finetune" else
                ["ablate", "--config", str(cfg), "--checkpoint", str(ckpt), "--axis", "k",
                 "--values", "1", "--out-dir", str(tmp_path / "sweep")])
        assert_refused(argv, tmp_path, capsys, [cfg])
        assert not (tmp_path / "sweep").exists()

    def test_non_positional_checkpoint_roles_exit_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        magic, header, payload = ckpt.read_bytes().split(b"\n", 2)
        head = json.loads(header)
        head["roles"][0] = "hidden"
        hidden_first = tmp_path / "hidden_first.ckpt"
        hidden_first.write_bytes(b"\n".join([magic, json.dumps(head).encode(), payload]))
        assert_refused(self.finetune_argv(cfg, hidden_first, tmp_path), tmp_path, capsys,
                       [hidden_first])


    @pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate"])
    def test_a_config_nested_past_the_recursion_limit_exits_2(self, trained, tmp_path, capsys,
                                                              command):
        cfg = tmp_path / "run.json"
        cfg.write_text("[" * 100_000)
        argv = {"pretrain": ["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")],
                "finetune": self.finetune_argv(cfg, trained[1], tmp_path),
                "ablate": ["ablate", "--config", str(cfg), "--checkpoint", str(trained[1]),
                           "--axis", "k", "--values", "1", "--out-dir", str(tmp_path / "sweep")]}
        err = assert_refused(argv[command], tmp_path, capsys, [cfg])
        assert "recursion depth" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("command", ["finetune", "mask-report"])
    def test_a_checkpoint_header_nested_past_the_recursion_limit_exits_2(self, trained, tmp_path,
                                                                         capsys, command):
        cfg, ckpt = trained
        magic, _, payload = ckpt.read_bytes().split(b"\n", 2)
        deep = tmp_path / "deep.ckpt"
        deep.write_bytes(b"\n".join([magic, b"[" * 100_000, payload]))
        if command == "finetune":
            argv, inputs = self.finetune_argv(cfg, deep, tmp_path), [deep]
        else:
            data_path = tmp_path / "target.csv"
            write_target_csv(data_path)
            argv = ["mask-report", "--checkpoint", str(deep), "--data", str(data_path),
                    "--k", "1", "--out", str(tmp_path / "r.json")]
            inputs = [deep, data_path]
        assert "malformed header" in assert_refused(argv, tmp_path, capsys, inputs)

    # each request is above the 2**47-byte user address space, so it fails at once and
    # never reserves memory; from 2**63 bytes on no array can even be indexed
    @pytest.mark.parametrize("command, section, key, value, named", [
        ("pretrain", "model", "dims", [6, 2 ** 45, 3], "PiB for an array with shape"),
        ("pretrain", "task", "per_class", 10 ** 15, "PiB for an array with shape"),
        ("finetune", "task", "per_class", 10 ** 15, "PiB for an array with shape"),
        ("pretrain", "model", "dims", [6, 2 ** 61, 3], "model.dims asks for an array of"),
        ("finetune", "task", "per_class", 10 ** 19, "task asks for an array of")])
    def test_a_size_no_allocation_can_hold_exits_2_naming_the_request(
            self, trained, tmp_path, capsys, command, section, key, value, named):
        cfg = write_config(tmp_path, section, key, value)
        argv = (["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]
                if command == "pretrain" else self.finetune_argv(cfg, trained[1], tmp_path))
        assert named in assert_refused(argv, tmp_path, capsys, [cfg])


class TestNonFiniteScoring:
    """A tau so small that contrastive scores overflow (1e-200) or turn NaN
    (1e-320), and features whose norms overflow, exit 3 with one line, and write no
    file."""

    def test_features_whose_norm_overflows_exit_3(self, tmp_path, capsys):
        # finite features of 1e200 give head inputs whose squared norms overflow to inf
        ckpt, data_path = tmp_path / "model.ckpt", tmp_path / "big.csv"
        save_checkpoint(init_model([4, 6, 6, 3], seed=0), ckpt)
        save_dataset_csv(data.Dataset(np.full((20, 4), 1e200), np.arange(20) % 3, 3),
                         data_path)
        assert main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                     "--k", "2", "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == [data_path, ckpt]

    @pytest.mark.parametrize("tau", ["1e-320", "1e-200"])
    def test_mask_report_exits_3(self, trained, tmp_path, capsys, tau):
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        assert main(["mask-report", "--checkpoint", str(trained[1]), "--data", str(data_path),
                     "--k", "2", "--tau", tau, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == [data_path]

    @pytest.mark.parametrize("dims", [None, [6, 192, 192, 3]])
    @pytest.mark.parametrize("tau", [1e-320, 1e-200])
    def test_finetune_exits_3(self, trained, tmp_path, capsys, tau, dims):
        # dims None: the trained checkpoint; [6, 192, 192, 3] takes the row path, where
        # scoring fills the training set's row anchor
        cfg = write_config(tmp_path, "finetune", "tau", tau)
        inputs, ckpt = [cfg], trained[1]
        if dims is not None:
            doc = json.loads(cfg.read_text())
            doc["model"]["dims"] = dims
            cfg.write_text(json.dumps(doc))
            ckpt = tmp_path / "model.ckpt"
            save_checkpoint(init_model(dims, seed=3), ckpt)
            inputs.append(ckpt)
        assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "report.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(inputs)


def refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=20, deadline=None)
@given(tau=st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e),
       scale=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
def test_extreme_tau_and_checkpoint_scale_exit_0_or_3_with_finite_json(trained, tau, scale):
    """Scoring at any valid tau, from a checkpoint scaled by any finite factor,
    either succeeds with finite JSON or exits 3 and writes nothing."""
    doc = copy.deepcopy(BASE_CONFIG)
    doc["finetune"]["tau"] = tau
    model = load_checkpoint(trained[1])
    for layer in model.layers:
        layer.weight[...] *= scale
        layer.bias[...] *= scale
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, scaled, data_path = root / "run.json", root / "scaled.ckpt", root / "target.csv"
        cfg.write_text(json.dumps(doc))
        save_checkpoint(model, scaled)
        write_target_csv(data_path)
        inputs = {cfg, scaled, data_path}
        for argv in (["mask-report", "--checkpoint", str(scaled), "--data", str(data_path),
                      "--k", "2", "--tau", repr(tau), "--out", str(root / "r.json")],
                     ["finetune", "--config", str(cfg), "--checkpoint", str(scaled),
                      "--out", str(root / "report.json")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            written = sorted(set(root.iterdir()) - inputs)
            assert code in (0, 3)
            if code == 3:
                assert written == []
            for path in written:
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=refuse_constant)
                path.unlink()


# a regular set of no layer: the penalty reads no lambda and no norm
EMPTY_REGULAR = {"last_l": 0, "include_embedding": False, "include_head": False}


class TestSweepIsCheckedBeforeTraining:
    """ablate refuses a sweep with any bad value before its first run trains."""

    @pytest.mark.parametrize("axis, values", [("regular_blocks", "0,1,-1"),
                                              ("regular_blocks", "0,2"), ("k", "1,9"),
                                              ("subsets_n", "1,37"), ("subsets_n", "1,19")])
    def test_bad_last_value_exits_2_without_training(self, trained, tmp_path, capsys,
                                                     monkeypatch, axis, values):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, harness._finetune_with_masks)  # every run of a sweep
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", axis, "--values", values,
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])
        assert calls == []
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("key, value, axis, values, setting", [
        ("variant", "full", "k", "1,2", "variant 'full'"),
        ("variant", "head", "k", "1,2", "variant 'head'"),
        ("variant", "full", "subsets_n", "2,4", "variant 'full'"),
        ("variant", "head", "subsets_n", "2,4", "variant 'head'"),
        ("lambda", 0.0, "norm", "l1,l2", "lambda 0"),
        ("lambda", 0.0, "regular_blocks", "0,1", "lambda 0"),
        ("norm", "none", "lambda", "0.01,0.1", "norm 'none'"),
        ("norm", "none", "regular_blocks", "0,1", "norm 'none'"),
        ("regular", EMPTY_REGULAR, "lambda", "0.01,0.1", "an empty regular set"),
        ("regular", EMPTY_REGULAR, "norm", "l1,l2", "an empty regular set")],
        ids=["k-full", "k-head", "subsets_n-full", "subsets_n-head", "norm-lambda0", "regular_blocks-lambda0", "lambda-norm_none",
             "regular_blocks-norm_none", "lambda-empty_regular", "norm-empty_regular"])
    def test_a_sweep_of_an_axis_its_run_does_not_read_exits_2_without_training(
            self, trained, tmp_path, capsys, monkeypatch, key, value, axis, values, setting):
        cfg = write_config(tmp_path, "finetune", key, value)
        calls = count_calls(monkeypatch, harness._finetune_with_masks)
        err = assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(trained[1]),
                              "--axis", axis, "--values", values,
                              "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [cfg])
        assert f"{setting} reads no {axis}, so every {axis} value gives the same run" in err
        assert calls == []
        assert not (tmp_path / "sweep").exists()


# The acceptance configuration of the README (finetune shortened to 3 epochs).
REFERENCE_CONFIG = {
    "seed": 7,
    "task": {"dim": 16, "classes": 4, "per_class": 200, "noise_sigma": 0.4,
             "shift": {"rotation_seed": 5, "magnitude": 2.0}},
    "model": {"dims": [16, 32, 32, 4]},
    "pretrain": {"epochs": 30, "base_lr": 0.05, "warmup_epochs": 2, "batch_size": 32},
    "finetune": {"k": 2, "variant": "row", "lambda": 0.01, "norm": "l2",
                 "regular": {"last_l": 1}, "tau": 0.5, "subsets_n": 4,
                 "epochs": 3, "base_lr": 0.02, "warmup_epochs": 2, "batch_size": 32},
}


def test_diverging_finetune_exits_3_and_writes_no_report(tmp_path, capsys):
    doc = copy.deepcopy(REFERENCE_CONFIG)
    cfg, ckpt = tmp_path / "run.json", tmp_path / "model.ckpt"
    cfg.write_text(json.dumps(doc))
    assert main(["pretrain", "--config", str(cfg), "--out", str(ckpt)]) == 0
    doc["finetune"]["base_lr"] = 1e300
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "report.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "run.json"]


def numeric_fields(doc, path=()):
    """Paths to every number in a config document, list entries included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_fields(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


# the base config with every optional number present
FULL_CONFIG = copy.deepcopy(BASE_CONFIG)
for _section in ("pretrain", "finetune"):
    FULL_CONFIG[_section].update(beta1=0.9, beta2=0.999, epsilon=1e-8)
NUMERIC_FIELDS = list(numeric_fields(FULL_CONFIG))
BAD_NUMBERS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.integers(max_value=-1),
                        st.floats(max_value=-1e-300, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(NUMERIC_FIELDS), value=BAD_NUMBERS,
       command=st.sampled_from(["pretrain", "finetune", "ablate"]))
def test_any_non_finite_or_negative_number_exits_2(trained, field, value, command):
    doc = copy.deepcopy(FULL_CONFIG)
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "run.json"
        cfg.write_text(json.dumps(doc))
        argv = {"pretrain": ["pretrain", "--config", str(cfg), "--out", str(root / "m.ckpt")],
                "finetune": ["finetune", "--config", str(cfg), "--checkpoint", str(trained[1]),
                             "--out", str(root / "report.json")],
                "ablate": ["ablate", "--config", str(cfg), "--checkpoint", str(trained[1]),
                           "--axis", "k", "--values", "1", "--out-dir", str(root / "sweep")]}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv[command]) == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert list(root.rglob("*")) == [cfg]


def small_config(dims: list[int]) -> dict:
    """A valid config for ``dims``: k 1, no hidden layer regularized, two scoring subsets."""
    doc = copy.deepcopy(BASE_CONFIG)
    doc["task"].update(dim=dims[0], classes=dims[-1], per_class=4)
    doc["model"]["dims"] = dims
    doc["finetune"].update(k=1, subsets_n=2, regular={"last_l": 0})
    return doc


def max_k(dims: list[int], variant: str) -> list[int]:
    """The largest k of each maskable layer: its rows for row masks, else its columns."""
    return [dims[i + 1] if variant == "row" else dims[i] for i in range(len(dims) - 2)]


def refuse_in_tmp(argv, files: dict, calls_of) -> tuple[str, list]:
    """Write ``files`` (name -> writer) into a fresh directory, run ``argv`` (a function
    of that directory) once, and assert it exits 2 with one error line and writes
    nothing. Returns the error line and the calls to each of ``calls_of``."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        for name, write in files.items():
            write(root / name)
        calls = [count_calls(mp, f) for f in calls_of]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv(root)) == 2
        assert sorted(p.name for p in root.rglob("*")) == sorted(files)
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return err.getvalue(), calls


DIMS = st.lists(st.integers(2, 8), min_size=3, max_size=5)  # 2-4 layers


@settings(max_examples=25, deadline=None, report_multiple_bugs=False)
@given(dims=DIMS, seed=st.integers(0, 2**16), pick=st.data())
def test_a_bad_k_regular_set_or_subset_count_is_refused_before_any_scoring(dims, seed, pick):
    doc = small_config(dims)
    field = pick.draw(st.sampled_from(["k", "last_l", "subsets_n"]))
    if field == "k":
        variant = pick.draw(st.sampled_from(masking.SELECTION_VARIANTS))
        limits = max_k(dims, variant)
        k = pick.draw(st.integers(min(limits) + 1, max(limits) + 3))
        doc["finetune"].update(variant=variant, k=k)
    elif field == "last_l":
        hidden = len(dims) - 3
        doc["finetune"].update({"regular": {"last_l": pick.draw(st.integers(hidden + 1, 9))},
                                "lambda": pick.draw(st.sampled_from([0, 0.01])),
                                "norm": pick.draw(st.sampled_from(["none", "l2"]))})
    else:
        target = doc["task"]["classes"] * doc["task"]["per_class"]
        doc["finetune"]["subsets_n"] = pick.draw(st.integers(target // 2 + 1, target + 3))
    files = {"run.json": lambda p: p.write_text(json.dumps(doc)),
             "model.ckpt": lambda p: save_checkpoint(init_model(dims, seed), p)}
    err, calls = refuse_in_tmp(
        lambda root: ["finetune", "--config", str(root / "run.json"),
                      "--checkpoint", str(root / "model.ckpt"), "--out", str(root / "r.json")],
        files, SCORING)
    assert f"{field}=" in err
    assert calls == [[], [], []]


@settings(max_examples=25, deadline=None, report_multiple_bugs=False)
@given(dims=DIMS, seed=st.integers(0, 2**16), pick=st.data())
def test_a_bad_mask_report_k_or_tau_is_refused_before_reading_the_data(dims, seed, pick):
    variant = pick.draw(st.sampled_from(masking.SELECTION_VARIANTS))
    k, tau = 1, 0.5
    if pick.draw(st.booleans()):
        k = pick.draw(st.one_of(st.integers(-3, 0), st.integers(min(max_k(dims, variant)) + 1, 12)))
    else:
        tau = pick.draw(st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                                  st.floats(max_value=-1e-300, allow_infinity=False)))
    task = gen_task(dims[0], dims[-1], 4, 0.15, ShiftConfig(7, 0.6), seed=seed)
    files = {"target.csv": lambda p: save_dataset_csv(task.target_train, p),
             "model.ckpt": lambda p: save_checkpoint(init_model(dims, seed), p)}
    err, calls = refuse_in_tmp(
        lambda root: ["mask-report", "--checkpoint", str(root / "model.ckpt"),
                      "--data", str(root / "target.csv"), f"--k={k}", f"--tau={tau!r}",
                      "--variant", variant, "--out", str(root / "r.json")],
        files, (data.load_dataset_csv, masking.scl_gradients))
    assert ("k=" if tau == 0.5 else "tau") in err
    assert calls == [[], []]


@pytest.fixture(scope="module")
def reference_inputs(tmp_path_factory):
    """The reference config (finetune shortened to 3 epochs) and its pretrained checkpoint,
    written once through the CLI."""
    root = tmp_path_factory.mktemp("reference")
    cfg, ckpt = root / "run.json", root / "model.ckpt"
    cfg.write_text(json.dumps(REFERENCE_CONFIG))
    assert main(["pretrain", "--config", str(cfg), "--out", str(ckpt)]) == 0
    return cfg, ckpt


class TestTheProbeIsTheHeadVariant:
    """The linear probe is ``finetune`` under ``variant: head``, so the CLI runs it: alone,
    and in a variant sweep beside the baselines."""

    def test_a_variant_sweep_runs_the_probe_beside_the_baselines(self, reference_inputs,
                                                                 tmp_path):
        cfg, ckpt = reference_inputs
        out_dir = tmp_path / "sweep"
        variants = ["row", "col", "sparse", "full", "head"]
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "variant", "--values", ",".join(variants),
                     "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["combined.csv", *(f"variant_{v}{ext}" for v in variants for ext in (".json", ".csv"))])
        run_cfg = parse_run_config(REFERENCE_CONFIG)
        _, probe = harness.linear_probe(load_checkpoint(ckpt), run_cfg.make_task(),
                                        run_cfg.finetune_config())
        probe.config = {**probe.config, "run_config": run_cfg.to_dict()}
        harness.write_report_json(probe, tmp_path / "probe.json")
        assert (out_dir / "variant_head.json").read_bytes() == \
            (tmp_path / "probe.json").read_bytes()

    def test_finetune_under_head_writes_the_report_trio(self, reference_inputs, tmp_path):
        cfg, ckpt = reference_inputs
        doc = copy.deepcopy(REFERENCE_CONFIG)
        doc["finetune"]["variant"] = "head"
        head_cfg = tmp_path / "head.json"
        head_cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["finetune", "--config", str(head_cfg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["variant"] == "head"
        assert len((tmp_path / "report.csv").read_text().splitlines()) == 1 + 3
        masks = json.loads((tmp_path / "report.mask.json").read_text())["layers"]
        assert [(m["variant"], m["indices"]) for m in masks[:-1]] == [("row", [])] * 2
        assert masks[-1]["variant"] == "full" and masks[-1]["shape"] == [4, 32]

    def test_mask_report_refuses_the_head_variant(self, trained, tmp_path, capsys):
        _, ckpt = trained
        data_path = tmp_path / "target.csv"
        write_target_csv(data_path)
        with pytest.raises(SystemExit) as exit_:
            main(["mask-report", "--checkpoint", str(ckpt), "--data", str(data_path),
                  "--k", "2", "--variant", "head", "--out", str(tmp_path / "r.json")])
        assert exit_.value.code == 2
        assert "invalid choice: 'head'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
