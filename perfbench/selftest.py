"""Quick self-test of the benchmark (about 10 s).

    python3 perfbench/selftest.py

1. Runs the tiny ``mobius-tiny`` config untraced and traced, and checks that
   every metric named in BENCHMARK.json is printed, with its unit, and that
   the run is correct.
2. Checks that a tampered ``sample.csv`` is reported as a failed command.
3. Checks that the benchmark refuses to run, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from run import (ROOT, WORK_DIR, Tally, check_command, load_golden,
                 run_pipeline)

WORKLOAD = "mobius-tiny"


def run_bench(cwd, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return [f"trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"trace {trace}: run not correct: {lines[-1]}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            errors.append(f"trace {trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
        printed = {ln.split()[0] for ln in lines[:-1] if ln.strip()}
        errors += [f"trace {trace}: {n} not printed" for n in want if n not in printed]
    return errors


def check_tamper() -> list[str]:
    golden = load_golden(WORKLOAD, 0)
    out = WORK_DIR / "selftest" / "tamper"
    tally = Tally()
    run_pipeline(WORKLOAD, out, 0, golden, tally, time.monotonic() + 120.0)
    if tally.failed:
        return ["untampered pipeline failed its golden check"]
    csv = out / "sample.csv"
    rows = csv.read_text().splitlines()
    rows[-1] = rows[-1][:-1] + ("1" if rows[-1][-1] != "1" else "2")
    csv.write_text("\n".join(rows) + "\n")
    tally.record(check_command("minimal-set", out, 0, golden))
    return [] if tally.failed == 1 else ["tampered sample.csv passed the golden check"]


def check_bare_directory(spec: dict) -> list[str]:
    bare = WORK_DIR / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_metrics(spec) + check_tamper() + check_bare_directory(spec)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
