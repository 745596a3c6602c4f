"""Named-tensor checkpoints.

Format: a numpy ``.npz`` archive holding one float64 array per named
tensor, plus two reserved keys:
  * ``__format_version__`` -- 0-d int64, currently 1;
  * ``__meta__`` -- 0-d unicode array with a JSON object (free-form
    metadata such as layer widths or the training seed).
Arrays are stored uncompressed and loaded with ``allow_pickle=False``.
Every file of a run or a fit is written whole through ``write_file``.
"""
from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
_RESERVED = ("__format_version__", "__meta__")


def write_file(path, write) -> None:
    """Write ``path`` whole: ``write(fh)`` fills a binary temporary file
    beside it (parents made), moved over it once written, so a write that
    fails partway leaves the previous file and no temporary one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    for key in _RESERVED:
        if key in tensors:
            raise ValueError(f"tensor name {key!r} is reserved")
    payload = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
    payload["__format_version__"] = np.int64(FORMAT_VERSION)
    payload["__meta__"] = np.str_(json.dumps(meta or {}, sort_keys=True))
    write_file(path, lambda fh: np.savez(fh, **payload))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """(tensors, meta) of a checkpoint; ``ValueError`` for a file that is
    not one (a missing file raises ``OSError``)."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path}: not a checkpoint ({err})") from err
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a checkpoint (a bare array)")
    with data:
        if "__format_version__" not in data:
            raise ValueError(f"{path}: not a checkpoint (missing version tag)")
        version = data["__format_version__"]
        if version.shape != ():
            raise ValueError(f"{path}: not a checkpoint (bad version tag)")
        version = int(version)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: checkpoint format version {version} not supported "
                f"(expected {FORMAT_VERSION})"
            )
        try:
            meta = json.loads(str(data["__meta__"]))
        except (KeyError, ValueError) as err:
            raise ValueError(f"{path}: not a checkpoint ({err})") from err
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: not a checkpoint (metadata {meta!r} "
                             "is not a JSON object)")
        tensors = {
            k: np.asarray(data[k], dtype=np.float64)
            for k in data.files
            if k not in _RESERVED
        }
    return tensors, meta
