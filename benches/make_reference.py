"""Rewrite ``reference.json``: the default-seed outputs every run is checked
against (training loss per iteration to 1e-9 relative, and every eval route).

    python3 benches/make_reference.py

Regenerate it only from a commit whose outputs are known to be right, and
say so in the change that does it.
"""

import json
import sys

import run

# Enough iterations to cover runs of about a minute at the defining commit.
LENGTHS = {"overfit_tiny": 400, "train_full": 200, "eval_wide": 40}
SEED = 0


def main() -> int:
    if not run.prepare():
        return 2
    import harness
    workloads = {}
    for name, n_ops in LENGTHS.items():
        wl, build = harness.WORKLOADS[name]
        inp = harness.setup(wl, build, SEED)
        res = harness.run_pass(wl, inp, n_ops, None)
        if res.failed:
            print(f"{name}: {res.failed} failed ops; reference not written",
                  file=sys.stderr)
            return 1
        workloads[name] = res.outputs
        print(f"{name}: {len(res.outputs)} outputs")
    harness.REFERENCE.write_text(json.dumps(
        {"seed": SEED, "workloads": workloads}, separators=(",", ":")) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
