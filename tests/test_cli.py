import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masktune import data, harness, masking
from masktune.cli import main
from masktune.config import parse_run_config
from masktune.data import save_dataset_csv, gen_task, ShiftConfig
from masktune.errors import ConfigError
from masktune.model import layer_roles, load_checkpoint


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

    def test_unknown_axis_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        assert main(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--axis", "nope", "--values", "1",
                     "--out-dir", str(tmp_path / "d")]) == 2
        assert "axis" in capsys.readouterr().err


def assert_refused(argv, tmp_path, capsys, inputs) -> None:
    """The command exits 2 with a one-line error and leaves no file but its inputs."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted(inputs)


def write_config(tmp_path, section, key, value, nested=None) -> Path:
    doc = copy.deepcopy(BASE_CONFIG)
    (doc[section][nested] if nested else doc[section])[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestContractHoles:
    """Invalid numbers, flags and checkpoints exit 2 before any output is written."""

    def finetune_argv(self, cfg, ckpt, tmp_path):
        return ["finetune", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "report.json")]

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

    def test_non_numeric_ablate_value_exits_2(self, trained, tmp_path, capsys):
        cfg, ckpt = trained
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", "k", "--values", "two",
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])

    def test_negative_seed_flag_exits_2(self, trained, tmp_path, capsys):
        cfg, _ = trained
        assert_refused(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"),
                        "--seed", "-1"], tmp_path, capsys, [])

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


class TestSweepIsCheckedBeforeTraining:
    """ablate refuses a sweep with any bad value before its first run trains."""

    @pytest.mark.parametrize("axis, values", [("regular_blocks", "0,1,-1"),
                                              ("regular_blocks", "0,2"), ("k", "1,9"),
                                              ("subsets_n", "1,37"), ("subsets_n", "1,19")])
    def test_bad_last_value_exits_2_without_training(self, trained, tmp_path, capsys,
                                                     monkeypatch, axis, values):
        cfg, ckpt = trained
        calls = count_calls(monkeypatch, harness.finetune)
        assert_refused(["ablate", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--axis", axis, "--values", values,
                        "--out-dir", str(tmp_path / "sweep")], tmp_path, capsys, [])
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
