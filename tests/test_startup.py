"""Start-up cost: every bundlemin process pins numpy's OpenBLAS pool to one
thread before numpy loads, because nothing in the package calls BLAS and an
idle worker thread spins CPU in every command; ``build``, which runs no
array code, loads no numpy at all, because the model layer imports it only
inside the functions that use it; and ``plot``, which only draws a sample,
loads no analysis layer."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundlemin
from bundlemin import cli
from bundlemin.constructions import CONSTRUCTIONS

SRC = Path(bundlemin.__file__).resolve().parents[1]

#: the modules ``bundlemin build`` imports: the graph model, the bases, the
#: bundles, the constructions and the command line
MODEL_LAYER = ("errors", "base_systems", "graphs", "bundles", "constructions", "cli")

#: the constructions whose build runs no array code: every one
ARRAY_FREE = (
    "mobius", "torus-on-mobius", "sturmian-cylinder", "circle-product", "m-circles", "theorem-d-1",
    "theorem-d-2:point", "theorem-d-2:arc", "theorem-d-2:two",
)

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
    """The pin holds in a process that loads numpy through the package (the
    sample layer; ``bundlemin.cli`` alone no longer loads it)."""
    env = child_env()
    try:
        numpy_threads = int(run_python(THREADS_AFTER.format(module="numpy"), env))
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"cannot count threads through /proc/self/task: {exc.stderr.strip()}")
    if numpy_threads <= 1:
        pytest.skip("numpy alone starts no BLAS worker here (one core), so the pin is not measured")
    assert int(run_python(THREADS_AFTER.format(module="bundlemin.analysis"), env)) == 1


def test_a_preset_pool_size_is_kept():
    code = "import os, bundlemin; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, child_env(OPENBLAS_NUM_THREADS="2")) == "2"


BUILD_THEN_NUMPY_LOADED = (
    "import sys; from bundlemin import cli; "
    "rc = cli.main(['build', {name!r}, '--out', {out!r}]); print(rc, 'numpy' in sys.modules)"
)


def test_every_construction_is_array_free():
    assert sorted(ARRAY_FREE) == sorted(CONSTRUCTIONS)


@pytest.mark.parametrize("name", ARRAY_FREE)
def test_build_loads_no_numpy(name, tmp_path):
    code = BUILD_THEN_NUMPY_LOADED.format(name=name, out=str(tmp_path))
    assert run_python(code, child_env()).splitlines()[-1] == "0 False"


PLOT_THEN_ANALYSIS_LOADED = (
    "import sys; from bundlemin import cli; "
    "rc = cli.main(['plot', '--out', {out!r}]); "
    "print(rc, sorted(m for m in ('bundlemin.analysis', 'bundlemin.fibre_index', 'bundlemin.thinning') "
    "if m in sys.modules))"
)


def test_plot_loads_no_analysis_layer(tmp_path):
    out = str(tmp_path)
    assert cli.main(["build", "torus-on-mobius", "--out", out]) == 0
    assert cli.main(["minimal-set", "--out", out, "--steps", "2000"]) == 0
    code = PLOT_THEN_ANALYSIS_LOADED.format(out=out)
    assert run_python(code, child_env()).splitlines()[-1] == "0 []"
    assert (tmp_path / "sample.svg").exists()


def import_time_imports(tree: ast.Module) -> list[tuple[int, str, int]]:
    """(line, module, level) of each import that runs when the module is
    imported: outside every function body and every ``if TYPE_CHECKING:``
    block (class bodies run)."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                found.extend((node.lineno, alias.name, node.level) for alias in node.names)
            else:
                found.append((node.lineno, node.module, node.level))
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_the_model_layer_imports_no_numpy_at_import_time():
    """Neither numpy nor a package module outside the model layer (which
    would load numpy) is imported when a model-layer module is."""
    found = []
    for module in MODEL_LAYER:
        path = SRC / "bundlemin" / f"{module}.py"
        for line, name, level in import_time_imports(ast.parse(path.read_text(encoding="utf-8"))):
            top = name.split(".")[0]
            if (level == 0 and top == "numpy") or (level == 1 and top not in MODEL_LAYER):
                found.append(f"{path.name}:{line} {'.' * level}{name}")
    assert not found, f"the model layer loads numpy or the array layer at import: {', '.join(found)}"


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
