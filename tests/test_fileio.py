"""Atomic output files: a write that fails partway leaves neither its target nor a temp file."""

import csv
import json

import numpy as np
import pytest

from conftest import small_model
from masktune.errors import InputError, NumericError
from masktune.fileio import atomic_open, write_json
from masktune.harness import EpochStats, TrainReport, write_report_csv, write_report_json
from masktune.masking import GradientMaskSet, save_masks
from masktune.model import save_checkpoint


class Boom(Exception):
    pass


def fail_on_call(monkeypatch, owner, name, n):
    """Make owner.name raise Boom on its n-th call; earlier calls go through."""
    original = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == n:
            raise Boom(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


def make_report(model):
    return TrainReport(epochs=[EpochStats(e, 0.1, 0.5, 0.4, 0.9) for e in range(3)],
                       final_accuracy=0.9, trainable_fraction=1.0, storage_bits=0,
                       optimizer_state_bytes=0, weight_distances=[0.0] * len(model.layers),
                       mask_subset_index=0, masks=GradientMaskSet.all_full(model), config={})


def test_failed_write_leaves_nothing(tmp_path):
    with pytest.raises(Boom):
        with atomic_open(tmp_path / "out.txt") as fh:
            fh.write("half")
            fh.flush()
            raise Boom
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(Boom):
        with atomic_open(path, "wb") as fh:
            fh.write(b"new")
            raise Boom
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


def test_write_replaces_the_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_open(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert list(tmp_path.iterdir()) == [path]


def test_missing_directory_raises_input_error(tmp_path):
    with pytest.raises(InputError):
        with atomic_open(tmp_path / "missing" / "out.txt") as fh:
            fh.write("x")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_json_raises_numeric_error_and_keeps_the_old_file(tmp_path, value):
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(NumericError):
        write_json({"layers": [{"objective": value}]}, path)
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def _csv_writer_failing_on_second_row(monkeypatch):
    real = csv.writer

    class Writer:
        def __init__(self, fh, *args, **kwargs):
            self.inner, self.rows = real(fh, *args, **kwargs), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 2:
                raise Boom("writerow")
            return self.inner.writerow(row)

    monkeypatch.setattr(csv, "writer", Writer)


@pytest.mark.parametrize("target", ["checkpoint", "report_json", "report_csv", "masks"])
def test_writer_failing_partway_leaves_nothing(tmp_path, monkeypatch, target):
    model = small_model()
    report = make_report(model)
    path = tmp_path / "out"
    if target == "checkpoint":
        # the magic line and the header are written before the failure
        fail_on_call(monkeypatch, np, "asarray", 1)
        write = lambda: save_checkpoint(model, path)
    elif target == "report_json":
        fail_on_call(monkeypatch, json, "dumps", 1)
        write = lambda: write_report_json(report, path)
    elif target == "report_csv":
        _csv_writer_failing_on_second_row(monkeypatch)
        write = lambda: write_report_csv(report, path)
    else:
        fail_on_call(monkeypatch, json, "dumps", 1)
        write = lambda: save_masks(report.masks, path)
    with pytest.raises(Boom):
        write()
    assert list(tmp_path.iterdir()) == []

