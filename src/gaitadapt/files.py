"""The JSON document layer: every artifact that later runs load (manifests,
checkpoints, configs, run arguments, results) is written and read here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_json(path: str | Path, doc: dict) -> None:
    """Write doc as canonical JSON (sorted keys, one-space indent, final
    newline) to a temporary file beside path, then rename it over path.

    A run killed or failing mid-write leaves either the previous file or
    none at path, never a truncated one.
    """
    path = Path(path)
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """Parse the JSON object at path, raising error if the text is malformed
    or holds anything but an object. A missing file raises FileNotFoundError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, or bytes that are not text
        raise error(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
