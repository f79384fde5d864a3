"""Package structure: every module imports at its top, and the modules
import one another without a cycle."""

import ast
import pathlib
from graphlib import CycleError, TopologicalSorter

import pytest

import dosde

PACKAGE = pathlib.Path(dosde.__file__).parent

# Try-guarded probes of numpy internals that older numpy builds lack.
LOCAL_PROBES = {("cli", "_blas_info"), ("cli", "_log_simd")}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _imported_names(node):
    """Absolute names of the modules an import statement reaches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = ".".join(filter(None, ["dosde" if node.level else None, node.module]))
    if module == "dosde":  # from . import x: each x is a module
        return ["dosde." + alias.name for alias in node.names]
    return [module]


def test_no_module_imports_inside_a_function():
    found = set()
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((name, fn.name, node.lineno))
    local = sorted(f for f in found if f[:2] not in LOCAL_PROBES)
    assert not local, "function-local imports: %s" % local


def test_the_package_import_graph_is_acyclic():
    graph = {}
    for name, tree in _modules().items():
        graph[name] = {
            target.split(".")[1]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for target in _imported_names(node)
            if target.startswith("dosde.")
        }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        pytest.fail("import cycle: %s" % " -> ".join(err.args[1]))
