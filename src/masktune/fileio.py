"""Atomic output files: a write either replaces its target whole or leaves it as it was."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError


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
