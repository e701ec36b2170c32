"""On-disk formats: canonical JSON, commented CSV and the parameter checkpoint.

Canonical JSON sorts object keys and drops all optional whitespace, so equal
values always serialize to equal bytes; a JSON file holds one such document
plus a trailing newline.  A CSV file is an optional ``# comment`` line, a
header row and data rows, written with the csv module's line endings.  A
checkpoint is binary: a magic string, then one length-prefixed block per
parameter.  Every artifact the package reads or writes goes through this
module.
"""

import csv
import json
import math
import struct

import numpy as np

from .errors import SchemaError

CHECKPOINT_MAGIC = b"OIKG0001"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")


def read_json(path):
    """Parsed JSON document; undecodable text or invalid JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def write_csv(path, header, rows, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(path, store) -> None:
    """A ParamStore's parameters, by name, as length-prefixed binary blocks
    (name, dims, little-endian float64 data)."""
    with open(path, "wb") as fh:
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
        out[name] = data.astype(np.float64).copy()
    return out
