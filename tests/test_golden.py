"""Golden digests: the fixed CLI set of ``make_golden`` writes the same bytes
as the committed table, at --jobs 1 and 2."""

import json

import pytest

from make_golden import TABLE, changes, run_set


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_artifacts_match_golden_digests(tmp_path, jobs):
    golden = json.loads(TABLE.read_text())
    got = run_set(tmp_path, jobs)
    moved = changes(golden, got)
    assert not moved, (
        f"{len(moved)} of {len(golden)} artifact digests moved at --jobs {jobs}: "
        f"{moved}.  The table holds the bits of the machine that wrote it, so "
        "another numpy or BLAS build may fail here with correct code.  On the "
        "machine that wrote it, a move is a byte change: regenerate the table "
        "with `PYTHONPATH=src python tests/make_golden.py` only for a change "
        "made on purpose, and list every file it prints as moved.")


def test_changes_name_every_moved_added_and_removed_path():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert changes(old, new) == ["moved b", "removed c", "added d"]
    assert changes(new, new) == []
