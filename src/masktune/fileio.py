"""Atomic output files: a write either replaces its target whole or leaves it as it was."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError, NumericError


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Open a fresh temp file in the directory of ``path`` for writing.

    ``mode`` is ``"w"`` or ``"wb"``; ``kwargs`` go to ``open``. A clean exit
    from the block moves the temp file over ``path`` with ``os.replace``. An
    exception in the block removes it, so ``path`` is never half written and
    no temp file stays behind. An OS error raises InputError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` to ``path`` atomically as JSON with one-space indents; a NaN
    or infinite number (not JSON under RFC 8259) raises NumericError instead."""
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write {path}: {exc}") from exc
    with atomic_open(path) as fh:
        fh.write(text)
