"""Golden artifact digests: a fixed small set of CLI runs, hashed file by file.

``run_set(root, jobs)`` runs every command of ``RUNS`` in-process under
``root`` and returns ``{relative path: sha256 hex}`` for every file they
wrote, except each ``timing.json``: that sidecar holds the wall clock, and
every other artifact is deterministic.  ``tests/test_golden.py`` compares
the digests at ``--jobs`` 1 and 2 with the committed table.

Regenerate the table only for a byte change made on purpose, and list every
file whose digest moved; the script prints each path whose digest moved,
was added or was removed, against the table it replaces:

    PYTHONPATH=src python tests/make_golden.py

The table holds the bits of the machine that wrote it: another numpy or
BLAS build may round differently.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from oikg.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")

# (output directory, argv after the command's --out/--data); "{jobs}" is the
# --jobs value of the run, and a "@name" value the directory of an earlier run
RUNS = (
    ("gen", ["gen", "--episodes", "6", "--val-episodes", "2"]),
    ("gen_detour", ["gen", "--mode", "detour", "--feature-dim", "32",
                    "--episodes", "4", "--val-episodes", "2", "--seed", "1"]),
    ("train_eval_every", ["train", "@gen", "--iters", "3", "--eval-every", "2",
                          "--seed", "2"]),
    ("train_med_ge", ["train", "@gen", "--iters", "2", "--flags", "MED,GE",
                      "--batch", "3"]),
    ("train_od", ["train", "@gen", "--iters", "2", "--flags", "OD"]),
    ("train_full", ["train", "@gen_detour", "--iters", "2", "--model", "full",
                    "--batch", "1"]),
    ("train_full_narrow", ["train", "@gen", "--iters", "1", "--model", "full",
                           "--batch", "1"]),
    ("eval_model", ["eval", "@gen", "--ckpt", "@train_eval_every/params.ckpt",
                    "--jobs", "{jobs}"]),
    ("eval_oracle", ["eval", "@gen", "--agent", "oracle", "--jobs", "{jobs}"]),
    ("eval_random", ["eval", "@gen", "--agent", "random", "--seed", "4",
                     "--jobs", "{jobs}"]),
    ("eval_full_unseen", ["eval", "@gen_detour", "--ckpt",
                          "@train_full/params.ckpt", "--split", "val_unseen",
                          "--jobs", "{jobs}"]),
    ("ablate", ["ablate", "@gen", "--grid=----,MGLO", "--iters", "2",
                "--seeds", "2", "--timing-steps", "5", "--jobs", "{jobs}"]),
    ("probe", ["probe", "@gen", "--which", "all", "--seeds", "2",
               "--probe-episodes", "2", "--train-iters", "1"]),
)


def _argv(root: Path, name: str, args: list, jobs: int) -> list:
    def resolve(a: str) -> str:
        return str(root / a[1:]) if a.startswith("@") else a.replace("{jobs}", str(jobs))

    cmd, *rest = args
    rest = [resolve(a) for a in rest]
    if cmd != "gen":   # the first argument names the data directory
        rest = ["--data"] + rest
    return [cmd, "--out", str(root / name)] + rest


def digest_tree(root: Path) -> dict:
    table = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "timing.json":
            data = p.read_bytes()
            table[p.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return table


def run_set(root: Path, jobs: int) -> dict:
    """Digests of every file the RUNS write under ``root``."""
    for name, args in RUNS:
        argv = _argv(root, name, args, jobs)
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return digest_tree(root)


def changes(old: dict, new: dict) -> list[str]:
    """One line per path whose digest differs between two tables: moved,
    added or removed, in path order."""
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"removed {path}")
        elif path not in old:
            lines.append(f"added {path}")
        elif old[path] != new[path]:
            lines.append(f"moved {path}")
    return lines


def main_write() -> int:
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = run_set(Path(tmp), jobs=1)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for line in changes(old, table):
        print(line)
    print(f"wrote {len(table)} digests to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main_write())
