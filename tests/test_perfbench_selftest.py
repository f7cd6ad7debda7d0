"""The benchmark's own gate (perfbench/selftest.py) at toy sizes: every
workload, untraced and traced, must run with no failed operation. It fails
on a raise, a tracer that does not restore what it patched, traced model
bytes that differ from untraced ones, a save/load round trip that predicts
differently, or a prediction that does not repeat."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
