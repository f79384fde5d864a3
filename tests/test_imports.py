"""Package structure: every module imports at its top, the modules
import one another without a cycle, one function builds every Philox
generator and ``kernels.gram`` every Gram of ``models``, ``integrators``
leaves rank events to the policy and ``truncate`` forms no product,
importing the package leaves the environment alone, and numpy is the
one runtime dependency."""

import ast
import os
import pathlib
import re
import subprocess
import sys
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


def _calls(tree):
    """(enclosing top-level function or None, callee's dotted name) per call."""
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield where, ast.unparse(node.func)


def test_one_philox_constructor_and_no_gram_outside_kernels_gram():
    modules = _modules()
    philox = sorted((name, where) for name, tree in modules.items()
                    for where, callee in _calls(tree) if callee.split(".")[-1] == "Philox")
    assert philox == [("paths", "philox")]
    # Every Gram models forms comes from kernels.gram.
    assert not [callee for _, callee in _calls(modules["models"])
                if callee.split(".")[-1] == "mean_outer"]


def test_integrators_leaves_rank_events_to_the_policy():
    # The policy is integrate's one explosion rule: the driver never truncates.
    assert not [callee for _, callee in _calls(_modules()["integrators"])
                if callee.split(".")[-1] == "truncate"]


def test_truncate_forms_no_product():
    # truncate stays in coefficient space: no N x d ensemble X = Y U.
    assert not [callee for where, callee in _calls(_modules()["rank_control"])
                if where == "truncate" and callee.split(".")[-1] == "product"]


_ENVIRON_AFTER_IMPORT = """
import os

before = dict(os.environ)
import dosde

print(dict(os.environ) == before)
"""


def test_importing_the_package_sets_no_environment_variable():
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["DOSDE_THREADS"] = "3"
    proc = subprocess.run(
        [sys.executable, "-c", _ENVIRON_AFTER_IMPORT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
