"""The benchmark's smoke check (``bench/smoke.py``) runs as part of the
suite: its traced runs wrap program functions by the names they are bound
to in their modules, so a refactor that unbinds one fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
