"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

For each workload (default: all) and each CLI seed index, runs the untraced
pipeline once and writes ``perfbench/goldens/<workload>.json``: every
command's exit code, the three verdict files as JSON, and the SHA-256 of
every other output.  Re-record only when a change alters the outputs on
purpose, and say why in the change's notes.
"""
from __future__ import annotations

import json
import sys
import time

from run import (COMMANDS, GOLDEN_DIR, SEED_INDICES, WORK_DIR, WORKLOADS, command_argv,
                 run_child, snapshot)


def record(workload: str) -> dict:
    goldens = {}
    for seed_index in range(SEED_INDICES):
        out = WORK_DIR / "goldens" / workload / str(seed_index)
        deadline = time.monotonic() + 600.0
        entry = {}
        for command in COMMANDS:
            res = run_child(command_argv(workload, command, out, seed_index, False), out,
                            command, deadline)
            entry[command] = snapshot(command, out, res["rc"])
            print(f"{workload} seed {seed_index} {command}: rc {res['rc']} "
                  f"{res['wall_s']:.3f} s {res['rss_mb']:.1f} MB", flush=True)
        goldens[str(seed_index)] = entry
    return goldens


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or WORKLOADS:
        goldens = record(workload)
        (GOLDEN_DIR / f"{workload}.json").write_text(
            json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
