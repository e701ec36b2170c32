"""On-disk formats: canonical JSON, commented CSV and the parameter checkpoint.

Canonical JSON sorts object keys and drops all optional whitespace, so equal
values always serialize to equal bytes; a JSON file holds one such document
plus a trailing newline.  A CSV file is a ``# comment`` line, which names
the run's ``config_hash``, a header row and data rows, written with the csv
module's line endings.  A checkpoint is binary: a magic string, then one
length-prefixed block per parameter.  Every artifact the package reads or
writes goes through this module.  A writer fills a sibling temporary file
and moves it into place with ``os.replace``, so a failure part-way leaves
the previous file, or none, never a prefix.  ``check_record`` holds the
one type rule every JSON data file is read by.
"""

import csv
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import SchemaError

CHECKPOINT_MAGIC = b"OIKG0001"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _replacing(path, mode: str, **kwargs):
    """A file opened for writing whose contents replace ``path`` only when
    the block exits normally; on any failure the temporary file goes and
    ``path`` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with _replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    write_text(path, canonical_json(obj) + "\n")


def read_json(path):
    """Parsed JSON document; undecodable text or invalid JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def has_type(value, kind) -> bool:
    """Whether a JSON value fits a field of type `kind`: a bool fits only a
    bool field, and an int also a float field, if a float can hold it.  A
    one-element list `[kind]` takes a list of such values."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(has_type(v, kind[0]) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def check_record(record, keys: dict, where):
    """`record`, once it is a JSON object holding every key in `keys` with
    a value of the type it maps to; anything else is a SchemaError naming
    `where` and the first key missing or mistyped."""
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    for key, kind in keys.items():
        if key not in record:
            raise SchemaError(f"{where}: missing key {key!r}")
        if not has_type(record[key], kind):
            raise SchemaError(f"{where}: key {key!r} has a value of the wrong type")
    return record


def write_csv(path, header, rows, comment: str) -> None:
    with _replacing(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(path, store) -> None:
    """A ParamStore's parameters, by name, as length-prefixed binary blocks
    (name, dims, little-endian float64 data)."""
    with _replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name in store.names():
            data = store.params[name].data
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", data.ndim))
            for d in data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parameter arrays by name; a malformed file, or a block holding a
    non-finite value, is a SchemaError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise SchemaError(f"{path}: bad checkpoint magic")
    out: dict[str, np.ndarray] = {}
    off = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise SchemaError(f"{path}: truncated checkpoint")
        piece = blob[off:off + n]
        off += n
        return piece

    while off < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: block name is not UTF-8") from exc
        if name in out:
            raise SchemaError(f"{path}: duplicate block {name!r}")
        (ndim,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        # Python ints: a product of 32-bit dims can exceed any fixed width
        flat = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8")
        try:
            data = flat.reshape(shape)
        except ValueError as exc:  # more dims than numpy supports
            raise SchemaError(f"{path}: block {name!r}: {exc}") from exc
        if not np.isfinite(data).all():
            raise SchemaError(f"{path}: block {name!r} holds a non-finite value")
        out[name] = data.astype(np.float64).copy()
    return out
