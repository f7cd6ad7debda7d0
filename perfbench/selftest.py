"""Self-test of the benchmark at toy sizes; takes seconds, not minutes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json shrunk down (``--size toy``), untraced
and traced, and checks that each run emits exactly the metrics named in
BENCHMARK.json with their units, that every name matches [A-Za-z0-9_.-]+,
and that no operation failed on the current code. Exits 1 on any failure.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}:\n{proc.stderr}"]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(record) != RESULT_KEYS:
        return [f"result keys {sorted(record)}"]
    errors = []
    units = {name: m["unit"] for name, m in record["metrics"].items()}
    missing = sorted(set(expected) - set(units))
    extra = sorted(set(units) - set(expected))
    wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
    if missing or extra or wrong:
        errors.append(f"missing {missing}, unexpected {extra}, wrong unit {wrong}")
    errors += [f"bad metric name {n!r}" for n in units if not NAME.fullmatch(n)]
    errors += [f"{n} is not a finite number" for n, m in record["metrics"].items()
               if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if not record["correct"] or record["failed"] or record["attempted"] < 1:
        errors.append(f"correct={record['correct']} failed={record['failed']}"
                      f"/{record['attempted']}: {proc.stdout}")
    return errors


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    names = [w["name"] for w in spec["workloads"]] + [n for e in expected.values() for n in e]
    for name in names:
        if not NAME.fullmatch(name):
            print(f"FAIL BENCHMARK.json name {name!r}")
            failures += 1
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(workload["name"], trace, expected[trace])
            status = "FAIL" if errors else "PASS"
            print(f"{status} {workload['name']} --trace {trace}")
            for error in errors:
                print(f"    {error}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
