"""The pair runner, ``tools/pairs.py``, copied into a throwaway git repository
whose ``BENCHMARK.json`` names a stub benchmark command: its statistics and
alternation, its refusal of an incorrect run, and that it writes nothing but
its BENCH file."""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

# Prints a machine line and a JSON result whose metrics depend on the side
# (side.txt of the tree it runs in) and the seed, and writes a record into
# its own tree, as the benchmark writes benches/out/.
STUB = '''
import json, sys, time
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, side = int(args["--seed"]), Path("side.txt").read_text().strip()
change = side == "change"
metrics = {"op_ms_p50": (10.0 + seed - change, "ms"),
           "decision_steps_per_s": (100.0 + seed + change, "1/s"),
           "peak_rss_mb": (40.0, "MB"), "start_ns": (time.monotonic_ns(), "ns")}
Path("out").mkdir(exist_ok=True)
Path("out", f"{args['--workload']}-{seed}.json").write_text(side)
print("machine " + json.dumps({"stub": True, "trace": args["--trace"],
                               "seconds": args["--seconds"]}))
print(json.dumps({"correct": not Path("incorrect.txt").exists(), "attempted": 3,
                  "failed": 0, "metrics": {k: {"value": v, "unit": u}
                                           for k, (v, u) in metrics.items()}}))
'''

# The acceptance stub: a test named like test_a05 that takes longer in the
# parent tree and fails where incorrect.txt exists.  Each timed run includes
# a whole pytest start-up, whose time spreads by up to about 0.35 s inside a
# full suite run, so the parent's extra second keeps the acceptance test's
# 0.3-s margin clear of that spread.
STUB_A05 = '''
import time
from pathlib import Path

def test_a05_stub():
    time.sleep(1.1 if Path("side.txt").read_text().strip() == "parent" else 0.1)
    assert not Path("incorrect.txt").exists()

def test_a06_stub():
    raise AssertionError("-k test_a05 deselects this")
'''

DECLARED = {"command": [sys.executable, "stub.py"], "run_seconds": 2, "end_to_end": [
    {"name": "op_ms_p50", "better": "lower"},
    {"name": "decision_steps_per_s", "better": "higher"},
    {"name": "peak_rss_mb", "better": "lower"}]}


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    """A committed tree whose side.txt reads "parent"; the working tree's
    reads "change"."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / "stub.py").write_text(STUB)
    (root / "tools").mkdir()
    shutil.copy(PAIRS, root / "tools" / "pairs.py")
    (root / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    (root / "side.txt").write_text("parent\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_stub.py").write_text(STUB_A05)
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "parent")
    (root / "side.txt").write_text("change\n")
    return root


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pairs(repo, tmp, *extra):
    tmp.mkdir(exist_ok=True)
    return subprocess.run(
        [sys.executable, str(repo / "tools" / "pairs.py"), "--pr", "7", "--parent", "HEAD",
         *extra],
        capture_output=True, text=True, env={**os.environ, "TMPDIR": str(tmp)})


def test_pairs_statistics_and_alternation(repo, tmp_path):
    proc = run_pairs(repo, tmp_path / "tmp", "--workloads", "wide:0-3", "tiny", "--seeds", "5")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((repo / "BENCH_7.json").read_text())
    assert record["machine"] == {"stub": True, "trace": "0", "seconds": "2.0"}
    assert record["seconds"] == 2.0 and record["command"] == [sys.executable, "stub.py"]
    wide = record["workloads"]["wide"]
    assert wide["seeds"] == [0, 1, 2, 3] and record["workloads"]["tiny"]["seeds"] == [5]
    for i, pair in enumerate(wide["pairs"]):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        assert pair["seed"] == i and pair["first"] == first
        assert pair[first]["start_ns"] < pair[second]["start_ns"]
        assert pair["parent"]["op_ms_p50"] == 10.0 + i
        assert pair["change"]["op_ms_p50"] == 9.0 + i
    p50 = wide["metrics"]["op_ms_p50"]
    assert p50["unit"] == "ms" and p50["better"] == "lower"
    assert p50["parent"] == {"median": 11.5, "iqr": 1.5, "won": 0}
    assert p50["change"] == {"median": 10.5, "iqr": 1.5, "won": 4}
    assert p50["median_change_frac"] == pytest.approx(-1.0 / 11.5)
    steps = wide["metrics"]["decision_steps_per_s"]
    assert (steps["parent"]["won"], steps["change"]["won"]) == (0, 4)
    rss = wide["metrics"]["peak_rss_mb"]
    assert (rss["parent"]["won"], rss["change"]["won"]) == (0, 0)
    assert "won" not in wide["metrics"]["start_ns"]["change"]
    values = [pair["parent"]["start_ns"] for pair in wide["pairs"]]
    assert wide["metrics"]["start_ns"]["parent"]["median"] == statistics.median(values)
    tiny = record["workloads"]["tiny"]["metrics"]["op_ms_p50"]
    assert tiny["parent"] == {"median": 15.0, "iqr": 0.0, "won": 0}


def test_pairs_refuses_an_incorrect_run(repo, tmp_path):
    (repo / "incorrect.txt").write_text("")   # untracked: only the change side has it
    proc = run_pairs(repo, tmp_path / "tmp", "--workloads", "wide", "--seeds", "0-1")
    assert proc.returncode != 0
    assert "is not correct" in proc.stderr and "change" in proc.stderr
    assert not (repo / "BENCH_7.json").exists()


def test_pairs_writes_only_its_bench_file(repo, tmp_path):
    before = snapshot(repo)
    tmp = tmp_path / "tmp"
    proc = run_pairs(repo, tmp, "--workloads", "wide", "--seeds", "0-1")
    assert proc.returncode == 0, proc.stderr
    after = snapshot(repo)
    assert after.pop("BENCH_7.json") and after == before
    assert not (repo / "out").exists()
    assert list(tmp.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["repo", "tmp"]


def test_pairs_acceptance_times_test_a05_in_both_trees(repo, tmp_path):
    before = snapshot(repo)
    proc = run_pairs(repo, tmp_path / "tmp", "--acceptance", "2")
    assert proc.returncode == 0, proc.stderr
    after = snapshot(repo)
    assert after.pop("BENCH_7.json") and after == before
    record = json.loads((repo / "BENCH_7.json").read_text())
    assert record["workloads"] == {}
    acceptance = record["acceptance"]
    assert acceptance["command"] == ["python", "-m", "pytest", "-q", "-k", "test_a05"]
    assert [pair["first"] for pair in acceptance["pairs"]] == ["parent", "change"]
    for pair in acceptance["pairs"]:
        assert pair["parent"]["wall_s"] > pair["change"]["wall_s"] + 0.3
    wall = acceptance["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert (wall["parent"]["won"], wall["change"]["won"]) == (0, 2)
    assert wall["parent"]["median"] == statistics.median(
        pair["parent"]["wall_s"] for pair in acceptance["pairs"])


def test_pairs_acceptance_refuses_a_failed_run(repo, tmp_path):
    (repo / "incorrect.txt").write_text("")   # untracked: only the change side has it
    proc = run_pairs(repo, tmp_path / "tmp", "--acceptance", "1")
    assert proc.returncode != 0
    assert "acceptance run in change exited 1" in proc.stderr
    assert not (repo / "BENCH_7.json").exists()
    assert run_pairs(repo, tmp_path / "tmp").returncode == 2   # nothing to run
