"""On-disk text formats: canonical JSON and commented CSV.

Canonical JSON sorts object keys and drops all optional whitespace, so equal
values always serialize to equal bytes; a JSON file holds one such document
plus a trailing newline.  A CSV file is an optional ``# comment`` line, a
header row and data rows, written with the csv module's line endings.  Every
artifact the package reads or writes goes through this module.
"""

import csv
import json

from .errors import SchemaError


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
