"""Every construction's CLI outputs, pinned.

For each construction in ``CONSTRUCTIONS`` the four commands run in process
(``build``, then ``minimal-set``, ``classify`` and ``plot`` at 5k steps,
delta 0.03, seed index 1) and their exit codes, the SHA-256 of every file
in ``--out`` and the ``classify`` stdout must equal
``construction_outputs.json``.  Re-record that file with
``python3 tests/record_construction_outputs.py`` only when a change alters
the outputs on purpose.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bundlemin.cli import main
from bundlemin.constructions import CONSTRUCTIONS

RECORDED = Path(__file__).resolve().parent / "construction_outputs.json"
RUN = ["--steps", "5000", "--delta", "0.03", "--seed", "1"]


def run_pipeline(construction: str, out: Path) -> dict:
    """Exit codes, file hashes and classify stdout of the four commands."""
    rc = {}
    stdout = {}
    for command, args in (
        ("build", [construction]),
        ("minimal-set", RUN),
        ("classify", RUN),
        ("plot", RUN),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc[command] = main([command, *args, "--out", str(out)])
        stdout[command] = buf.getvalue()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {"rc": rc, "files": files, "classify_stdout": stdout["classify"]}


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_outputs_match_recording(tmp_path, construction):
    want = json.loads(RECORDED.read_text())[construction]
    assert run_pipeline(construction, tmp_path) == want
