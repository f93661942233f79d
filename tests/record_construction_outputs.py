"""Record ``construction_outputs.json``, which
``test_construction_outputs.py`` compares against.

    PYTHONPATH=src python3 tests/record_construction_outputs.py
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from test_construction_outputs import RECORDED, run_pipeline

from bundlemin.constructions import CONSTRUCTIONS


def main() -> int:
    recorded = {}
    for construction in sorted(CONSTRUCTIONS):
        with tempfile.TemporaryDirectory() as out:
            recorded[construction] = run_pipeline(construction, Path(out))
        print(construction, recorded[construction]["rc"], flush=True)
    RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
