"""Atomic file replacement for artifacts that later runs load."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    A run killed or failing mid-write leaves either the previous file or
    none at path, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
