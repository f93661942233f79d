"""The benchmark's recorded outputs, reproduced in process.

``perfbench/goldens`` holds, per workload and CLI seed index, the exit code
of every command and its outputs: verdict JSON parsed, every other file by
SHA-256.  Seed index 0 of the two classify-heavy workloads and of
``sturmian-orbit`` (a product bundle sliced at width 1e-6) is replayed here
through ``cli.main`` (100k steps, delta 0.02, as the benchmark runs them).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bundlemin.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"


@pytest.mark.parametrize(
    "workload, construction",
    [
        ("monodromy-circles", "torus-on-mobius"),
        ("odometer-classify", "theorem-d-1"),
        ("sturmian-orbit", "sturmian-cylinder"),
    ],
)
def test_pipeline_matches_benchmark_golden(tmp_path, capsys, workload, construction):
    golden = json.loads((GOLDENS / f"{workload}.json").read_text())["0"]
    out = str(tmp_path)
    argv = {
        "build": ["build", construction],
        "minimal-set": ["minimal-set", "--steps", "100000", "--delta", "0.02", "--seed", "0"],
        "classify": ["classify", "--delta", "0.02"],
    }
    for command, args in argv.items():
        assert main([*args, "--out", out]) == golden[command]["rc"], command
        for name, want in golden[command]["files"].items():
            path = tmp_path / name
            if isinstance(want, dict):
                assert json.loads(path.read_text()) == want, name
            else:
                assert hashlib.sha256(path.read_bytes()).hexdigest() == want, name
