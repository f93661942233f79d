"""Start-up cost: every bundlemin process pins numpy's OpenBLAS pool to one
thread before numpy loads, because nothing in the package calls BLAS and an
idle worker thread spins CPU in every command."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundlemin

SRC = Path(bundlemin.__file__).resolve().parents[1]

#: the variables that size numpy's BLAS thread pool
POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

#: attribute calls that reach BLAS through numpy
BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def child_env(**preset: str) -> dict[str, str]:
    """os.environ without the pool variables (this process inherited the
    package's own setting), plus ``preset``, with src/ importable."""
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**env, **preset}


def run_python(code: str, env: dict[str, str]) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


THREADS_AFTER = "import os, {module}; print(len(os.listdir('/proc/self/task')))"


def test_cli_import_leaves_one_thread():
    env = child_env()
    try:
        numpy_threads = int(run_python(THREADS_AFTER.format(module="numpy"), env))
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"cannot count threads through /proc/self/task: {exc.stderr.strip()}")
    if numpy_threads <= 1:
        pytest.skip("numpy alone starts no BLAS worker here (one core), so the pin is not measured")
    assert int(run_python(THREADS_AFTER.format(module="bundlemin.cli"), env)) == 1


def test_a_preset_pool_size_is_kept():
    code = "import os, bundlemin; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, child_env(OPENBLAS_NUM_THREADS="2")) == "2"


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each matrix product, ``linalg`` attribute or call of
    a BLAS-backed numpy function in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in BLAS_CALLS
        ):
            found.append((node.lineno, f"{node.func.attr}()"))
    return found


def test_src_calls_no_blas():
    found = [
        f"{path.name}:{line} {what}"
        for path in sorted((SRC / "bundlemin").glob("*.py"))
        for line, what in blas_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, (
        f"src/bundlemin now calls BLAS ({', '.join(found)}): re-measure the "
        "one-thread OPENBLAS_NUM_THREADS pin in bundlemin/__init__.py"
    )
