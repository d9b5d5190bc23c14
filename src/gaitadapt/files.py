"""The file layer: every JSON artifact that later runs load (manifests,
checkpoints, configs, run arguments, results) is written and read here,
and every CSV table (training logs, round diagnostics, ablation tables) is
written here. These and the dataset split files are written through
replacing(), one temporary file renamed into place.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path beside path; rename it over path when the
    block ends normally, delete it when the block raises.

    A run killed or failing mid-write leaves either the previous file or
    none at path, never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: dict) -> None:
    """Write doc as canonical JSON (sorted keys, one-space indent, final
    newline) through replacing(path).
    """
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    with replacing(path) as tmp:
        tmp.write_text(text)


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write the header row and then rows as CSV through replacing(path).

    rows may be a generator; if it raises, path is left as it was.
    """
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
