"""On-disk formats: canonical JSON, commented CSV and the parameter checkpoint.

Canonical JSON sorts object keys and drops all optional whitespace, so equal
values always serialize to equal bytes; a JSON file holds one such document
plus a trailing newline.  A CSV file is a ``# comment`` line, which names
the run's ``config_hash``, a header row and data rows, written with the csv
module's line endings.  A checkpoint is binary: a magic string, a ``<I``
length, a canonical JSON header holding the writer's fields and the block
table (``[name, dims]`` per parameter, sorted by name), then each block's
little-endian float64 data in table order, which fills the file exactly.
Every artifact the package reads or writes goes through this module.  A
writer fills a sibling temporary file and moves it into place with
``os.replace``, so a failure part-way leaves the previous file, or none,
never a prefix.  ``check_record`` holds the one type rule every JSON data
file, the checkpoint header among them, is read by.
"""

import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import SchemaError

CHECKPOINT_MAGIC = b"OIKG0002"


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


def save_checkpoint(path, store, header: dict) -> None:
    """A ParamStore's parameters, by name, under ``header`` plus their
    block table."""
    with _replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        names = store.names()
        data = [np.asarray(store.params[n].data, dtype="<f8") for n in names]
        table = [[n, list(d.shape)] for n, d in zip(names, data)]
        head = canonical_json(dict(header, blocks=table)).encode("utf-8")
        fh.write(len(head).to_bytes(4, "little") + head)   # <I, then the header
        for d in data:
            fh.write(d.tobytes())   # C order


def load_checkpoint(path, keys: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, parameter arrays by name), once the header holds ``keys``
    as ``check_record`` reads them and a block table whose data fills the
    rest of the file exactly.  Anything else, such as a file of another
    format or a block holding a non-finite value, is a SchemaError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise SchemaError(f"{path}: not an {CHECKPOINT_MAGIC.decode()} checkpoint; retrain")
    off = len(CHECKPOINT_MAGIC) + 4
    size = int.from_bytes(blob[off - 4:off], "little")   # the <I header length
    if off + size > len(blob):
        raise SchemaError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[off:off + size].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: invalid checkpoint header: {exc}") from exc
    check_record(header, dict(keys, blocks=list), f"{path} header")
    off += size
    out: dict[str, np.ndarray] = {}
    for entry in header["blocks"]:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and has_type(entry[1], [int])
                and len(entry[1]) <= 32 and min(entry[1], default=0) >= 0):
            raise SchemaError(f"{path}: block entry {entry!r} is not [name, "
                              "[dim >= 0, ...]] with at most 32 dims (numpy 1's limit)")
        name, dims = entry
        if name in out:
            raise SchemaError(f"{path}: duplicate block {name!r}")
        end = off + 8 * math.prod(dims)   # Python ints: no fixed width to wrap
        if end > len(blob):
            raise SchemaError(f"{path}: block {name!r} is cut short")
        data = np.frombuffer(blob[off:end], dtype="<f8").reshape(dims)
        if not np.isfinite(data).all():
            raise SchemaError(f"{path}: block {name!r} holds a non-finite value")
        out[name] = data.astype(np.float64)
        off = end
    if off != len(blob):
        raise SchemaError(f"{path}: {len(blob) - off} bytes after the last block")
    return header, out
