"""Run the benchmark in parent/change pairs and write ``BENCH_<pr>.json``.

    python3 tools/pairs.py --pr N --parent HEAD \\
        --workloads eval_wide:0-9 overfit_tiny train_full --seeds 0-2
    python3 tools/pairs.py --pr N --parent HEAD --acceptance 3

The parent revision (``git archive``) and the working tree (every tracked
or untracked, not ignored file, as it is on disk) are exported into one
temporary directory each, so neither run writes into the repository.  Each
pair runs ``BENCHMARK.json``'s ``command`` with ``--workload W --seed S
--seconds N --trace 0`` (``N`` defaults to its ``run_seconds``) in both
trees, one after the other; the side that runs first alternates from pair
to pair.  The last line of a run's standard output is its JSON result; a
run that exits non-zero or is not ``"correct"`` stops the runner before
anything is written.

The output, at the repository root, holds the machine record of the first
run, every pair's metrics, and per workload and metric each side's median,
inter-quartile range and pairs won (the direction comes from
``BENCHMARK.json``'s ``end_to_end`` list; ties win for neither side).  The
runner imports nothing from ``benches/``.

``--acceptance N`` adds N pairs, alternating in the same way, of the
2000-iteration overfit acceptance test: ``python -m pytest -q -k test_a05``
run in each tree with its ``src`` first on ``PYTHONPATH``.  Each run's wall
time goes under ``"acceptance"`` as ``wall_s``, lower being better; a run
that exits non-zero, a failed or deselected test, stops the runner.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ACCEPTANCE = ["-m", "pytest", "-q", "-k", "test_a05"]   # after this interpreter


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"3"`` or ``"0,2,5-7"`` as a list of seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def export_revision(repo: Path, rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(repo: Path, dest: Path) -> None:
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = repo / name
        if src.is_file():   # a deleted, still-tracked file is gone from the tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(command: list, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its JSON result and machine
    record; a failed or incorrect run raises SystemExit."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    what = f"{workload} seed {seed} in {tree.name}"
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"pairs: {what} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise SystemExit(f"pairs: {what} is not correct: {lines[-1]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()},
            "machine": machine}


def run_acceptance(tree: Path) -> dict:
    """One timed acceptance run in ``tree``; a failed run raises SystemExit."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(tree / "src") + (os.pathsep + path if path else "")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *ACCEPTANCE], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"pairs: acceptance run in {tree.name} exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"wall_s": wall}


def alternate(n: int):
    """The order of the sides in pair i: parent first on even i."""
    return SIDES if n % 2 == 0 else SIDES[::-1]


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def workload_stats(pairs: list, units: dict, better: dict) -> dict:
    """Per metric: each side's median, IQR and pairs won, and the change's
    median relative to the parent's."""
    out = {}
    for name, unit in units.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        entry = {"unit": unit, "better": better.get(name)}
        for side in SIDES:
            entry[side] = summary(values[side])
        if entry["better"] in ("lower", "higher"):
            sign = -1.0 if entry["better"] == "lower" else 1.0
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            entry["parent"]["won"] = sum(d < 0 for d in diffs)
            entry["change"]["won"] = sum(d > 0 for d in diffs)
        base = entry["parent"]["median"]
        entry["median_change_frac"] = (entry["change"]["median"] - base) / base if base else None
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", nargs="*", default=[],
                    help="workload names, each optionally NAME:SEEDS to override --seeds")
    ap.add_argument("--seeds", type=parse_seeds, default=[0],
                    help="seeds such as 0-9 or 0,3,5 (default 0)")
    ap.add_argument("--seconds", type=float,
                    help="length of each run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--acceptance", type=int, default=0, metavar="N",
                    help="also time N pairs of the test_a05 acceptance run (default 0)")
    args = ap.parse_args()
    if not args.workloads and args.acceptance < 1:
        ap.error("nothing to run: give --workloads or --acceptance N")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = list(declared["command"])
    seconds = float(declared["run_seconds"] if args.seconds is None else args.seconds)
    better = {m["name"]: m["better"] for m in declared.get("end_to_end", [])}
    plan = []
    for item in args.workloads:
        name, _, seeds = item.partition(":")
        plan.append((name, parse_seeds(seeds) if seeds else args.seeds))

    record = {"parent": git(ROOT, "rev-parse", args.parent).decode().strip(),
              "change": "working tree of " + git(ROOT, "rev-parse", "HEAD").decode().strip(),
              "command": command, "seconds": seconds, "machine": None,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_revision(ROOT, args.parent, trees["parent"])
        export_worktree(ROOT, trees["change"])
        for name, seeds in plan:
            pairs, units = [], {}
            for i, seed in enumerate(seeds):
                order = alternate(i)
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = run_once(command, trees[side], name, seed, seconds)
                    pair[side] = run["metrics"]
                    units.update(run["units"])
                    record["machine"] = record["machine"] or run["machine"]
                pairs.append(pair)
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{side} op_ms_p50 {pair[side].get('op_ms_p50', float('nan')):.3f}"
                    for side in SIDES), file=sys.stderr)
            record["workloads"][name] = {"seeds": seeds, "pairs": pairs,
                                         "metrics": workload_stats(pairs, units, better)}
        if args.acceptance:
            pairs = []
            for i in range(args.acceptance):
                order = alternate(i)
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_acceptance(trees[side])
                pairs.append(pair)
                print(f"acceptance pair {i}: " + ", ".join(
                    f"{side} {pair[side]['wall_s']:.1f} s" for side in SIDES), file=sys.stderr)
            record["acceptance"] = {
                "command": ["python", *ACCEPTANCE], "pairs": pairs,
                "metrics": workload_stats(pairs, {"wall_s": "s"}, {"wall_s": "lower"})}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
