"""``tools/ogi_passes.py``, run for two reps: both sides walk the same routes,
and the memo side's warm pass reads every OGI call from the memo."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ogi_passes.py"


def test_ogi_passes_reports_both_passes_and_sides():
    proc = subprocess.run([sys.executable, str(TOOL), "--reps", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["reps"] == 2
    for name in ("cold", "warm"):
        for side in ("memo", "off"):
            assert out[name][side]["median_ms"] > 0 and out[name][side]["iqr_ms"] >= 0
        assert out[name]["memo"]["won"] + out[name]["off"]["won"] <= 2
        assert out[name]["memo_vs_off_frac"]["iqr"] >= 0
    assert 0.0 <= out["cold"]["memo_hit_share"] < 0.5
    assert out["warm"]["memo_hit_share"] == 1.0
