"""Smoke test of the benchmark itself: every workload on a tiny grid, traced
and untraced, with every metric of BENCHMARK.json present with its unit.

Run from the repository root:  python -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_prints_every_metric():
    out = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                         text=True, timeout=170, check=False)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke": True}
