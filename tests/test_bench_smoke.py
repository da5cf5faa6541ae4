"""The benchmark's smoke run, so that a package change which breaks a name
the benchmark calls fails the tests.  It writes only under .bench_work/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke test passed" in done.stdout
