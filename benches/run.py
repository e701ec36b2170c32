"""Benchmark entry point; run from the repository root:

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins BLAS to one thread before numpy is imported, puts this checkout's
``src`` first on the import path, and hands over to ``harness.main``.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def prepare() -> bool:
    """Pin BLAS threads and expose the sources; False when they are absent."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "oikg" / "training.py").is_file():
        print(f"benchmark: no oikg sources under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def main() -> int:
    if not prepare():
        return 2
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
