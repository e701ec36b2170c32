"""Time greedy evaluation passes with the untaped OGI memo on and off.

    python3 tools/ogi_passes.py --reps 20

Each rep builds the benchmark's ``eval_wide`` inputs at a new seed, so every
memo starts cold, and walks its 40 episodes twice with
``training.evaluate_policy`` under one parameter set: the cold pass is what
every evaluation of fresh parameters runs, and it pays for filling the memo;
the warm pass repeats each call of the cold one.  The "off" side replaces
``model.observation_graph_interaction`` by the plain decoder stack, as it ran
before the memo; the side that runs first alternates by rep, in one process.
Prints one JSON object: per pass and side the median and IQR in ms and the
reps won, the median and IQR over reps of the memo side's time relative to
the off side's, and the share of the memo side's OGI calls that read the
memo.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benches")]

import harness  # noqa: E402  the benchmark's workload definitions
from oikg import model, training  # noqa: E402

FIRST_SEED = 100   # away from the benchmark's own seeds
PASSES = ("cold", "warm")
SIDES = ("memo", "off")


def plain_stack(f_g, f_o, params, cfg):
    return model._ogi_stack(f_g, f_o, params, cfg.layers)


def two_passes(inp, t_max: int, side: str) -> tuple[list, list, list]:
    """Per pass: seconds, decoder-stack runs and the per-episode metrics."""
    memo, stack = model.observation_graph_interaction, model._ogi_stack
    runs = [0]

    def counted(*args):
        runs[0] += 1
        return stack(*args)

    if side == "off":
        model.observation_graph_interaction = plain_stack
    model._ogi_stack = counted
    try:
        secs, stacks, rows = [], [], []
        for _ in PASSES:
            runs[0] = 0
            start = time.perf_counter()
            rows.append(training.evaluate_policy(inp.data, inp.params, inp.mcfg, t_max)[0])
            secs.append(time.perf_counter() - start)
            stacks.append(runs[0])
    finally:
        model.observation_graph_interaction, model._ogi_stack = memo, stack
    return secs, stacks, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20)
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error("--reps must be at least 2, for quartiles")
    wl, build = harness.WORKLOADS["eval_wide"]
    ms = {(p, s): [] for p in PASSES for s in SIDES}
    runs = {(p, s): 0 for p in PASSES for s in SIDES}
    for rep in range(args.reps):
        got = {}
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            got[side] = two_passes(build(FIRST_SEED + rep), wl.t_max, side)
        if got["memo"][2] != got["off"][2]:
            raise SystemExit(f"ogi_passes: rep {rep}: the two sides walked differently")
        for side, (secs, stacks, _) in got.items():
            for i, name in enumerate(PASSES):
                ms[name, side].append(secs[i] * 1e3)
                runs[name, side] += stacks[i]
    out = {"reps": args.reps, "seeds": [FIRST_SEED, FIRST_SEED + args.reps - 1]}
    for name in PASSES:
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(ms[name, side], n=4, method="inclusive")
            entry[side] = {"median_ms": median, "iqr_ms": q3 - q1}
        pairs = list(zip(ms[name, "memo"], ms[name, "off"]))
        entry["memo"]["won"] = sum(m < o for m, o in pairs)
        entry["off"]["won"] = sum(o < m for m, o in pairs)
        # reps differ in their worlds and route lengths: compare within a rep
        q1, median, q3 = statistics.quantiles([m / o - 1.0 for m, o in pairs], n=4,
                                              method="inclusive")
        entry["memo_vs_off_frac"] = {"median": median, "iqr": q3 - q1}
        # the off side runs the stack once per call: its count is the calls
        entry["memo_hit_share"] = 1.0 - runs[name, "memo"] / runs[name, "off"]
        out[name] = entry
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
