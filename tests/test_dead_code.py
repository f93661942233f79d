"""No dead library surface: every top-level function and class in
``src/bundlemin`` is named somewhere else in ``src/``, and every method of
such a class is read there as an attribute, unless it is allowed below; and
every exception class is one some handler in ``src/`` tells apart."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

#: definitions nothing in src/ calls, kept because tests use them as the
#: reference for a construction or a base (``rotation_number_of_circle_map``
#: and ``Circle.contains_point`` are reached through ``rotation_number``)
ORACLES = {
    "analysis.SampledSet.from_points",
    "base_systems.adding_machine",
    "base_systems.code_from_digits",
    "base_systems.recurrence_horizon",
    "base_systems.sturmian_fibre_codings",
    "bundles.orbit",
    "constructions.case2_branch_images",
    "constructions.mobius_boundary_circle_map",
    "graphs.check_continuity",
    "graphs.interval_graph",
    "graphs.rotation_number",
    "graphs.star_graph",
}

#: definitions nothing in src/ calls, kept because ``perfbench/tracer.py``
#: reads them outside its ``FUNCTIONS`` table: its ``_orbit`` observer counts
#: the kept orbit as ``len(sample.points)``
TRACER_READ = {
    "analysis.SampledSet.points",
}


#: methods nothing in src/ calls by name, kept because a standard-library
#: base class calls them: argparse reports a malformed command line through
#: ``ArgumentParser.error``
OVERRIDES = {
    "cli._Parser.error",
}


def tracer_pinned() -> set[str]:
    """The attribute names the benchmark tracer wraps by name, read from the
    ``FUNCTIONS`` table of ``perfbench/tracer.py``; none once that table is
    gone."""
    if not TRACER.exists():
        return set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            return {owner_attr.elts[1].value for owner_attr in node.value.values}
    return set()


def uncalled_definitions() -> set[str]:
    """``module.name`` of each top-level definition whose name no module in
    src/ reads, as a name, an attribute or an import, and
    ``module.Class.method`` of each method whose name no module in src/
    reads as an attribute: a method is reached only through one, so a
    local variable or a function of the same name does not hide it."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read: set[str] = set()
    attrs: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    read |= attrs
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = set()
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if node.name not in read:
                out.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(
                    f"{path.stem}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, defs) and m.name not in attrs
                )
    return out


def test_every_uncalled_definition_is_pinned_or_an_oracle():
    pinned = tracer_pinned()
    names = {qual: qual.rpartition(".")[2] for qual in uncalled_definitions()}
    dunder = {qual for qual, name in names.items() if name.startswith("__") and name.endswith("__")}
    assert {qual for qual, name in names.items() if name not in pinned} - dunder == ORACLES | TRACER_READ | OVERRIDES


#: exception classes besides ``BundleMinError`` that no ``except`` clause in
#: src/ names: ``InvalidPoint``, a point off its graph or base, is kept apart
#: from ``WrongInput`` so that ``except WrongInput`` never turns that program
#: fault into a config error
UNCAUGHT_ERRORS = {"InvalidPoint"}


def caught_names() -> set[str]:
    """The names each ``except`` clause in src/ catches."""
    out = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                out.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return out


def test_every_exception_class_is_caught_somewhere():
    tree = ast.parse((SRC / "bundlemin" / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes - caught_names() - {"BundleMinError"} == UNCAUGHT_ERRORS
