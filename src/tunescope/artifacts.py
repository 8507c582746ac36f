"""The one way a file reaches disk.

Every file tunescope writes goes through ``write_artifact``: the payload
lands in a hidden sibling that then replaces the destination, so a
failed or killed run leaves the previous file or none, never a partial
one, and ``--resume`` never reads half a file.  This module imports no
other tunescope module, so every layer can use it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["write_artifact", "write_json", "write_csv"]


def write_artifact(path, payload: str | bytes) -> None:
    """Write ``payload`` (text is ASCII-encoded) whole to ``path``,
    creating its parent directory."""
    path = Path(path)
    data = payload.encode("ascii") if isinstance(payload, str) else payload
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, blob) -> None:
    """The one JSON artifact format: sorted keys, two-space indent."""
    write_artifact(path, json.dumps(blob, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def write_csv(path, rows) -> None:
    """The one CSV artifact format: a line per row, comma-separated cells.

    None is an empty cell, text and integers are written as they are, and
    any other number as ``repr(float(x))``, which round-trips exactly.
    """
    write_artifact(path, "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows))
