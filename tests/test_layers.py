"""Import layering: each trapcool module imports only the modules below it.

The order is errors, hilbert, gaussian, models, sme, scenario, validation,
cli. Imports inside function bodies count too, so a lazy import cannot
hide a cycle. The package facade, __init__, is exempt.

scipy.sparse is imported where a generator is built, so the package and
the commands that build none load numpy only. scipy.linalg, which
scipy.sparse.linalg loads, is imported only where a kernel is factored,
so conditioned trajectories never hold it.

Every private module-level name is read somewhere in the package outside
its own definition, so no helper is kept for the tests alone.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

import trapcool

LAYERS = ("errors", "hilbert", "gaussian", "models", "sme", "scenario", "validation", "cli")
PACKAGE = pathlib.Path(trapcool.__file__).parent


def _package_imports(path: pathlib.Path) -> set:
    """trapcool modules that the source file imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" and "from .x import y" are relative to the package
            package = "trapcool" if node.level == 1 else ""
            module = ".".join(filter(None, (package, node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "trapcool" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("index, module", list(enumerate(LAYERS)), ids=LAYERS)
def test_module_imports_only_lower_layers(index, module):
    imported = _package_imports(PACKAGE / f"{module}.py")
    assert imported <= set(LAYERS[:index]), sorted(imported - set(LAYERS[:index]))


def test_only_generator_builds_load_scipy_sparse():
    # a fresh interpreter: this one already holds scipy
    probe = "\n".join((
        "import os, sys, trapcool, trapcool.cli",
        "def run(*argv, module='scipy.sparse'):",
        "    assert trapcool.cli.main([*argv, '--out', os.devnull]) == 0, argv",
        "    return module in sys.modules",
        "print(run('sweep', '--key', 'g', '--values', '0.1,-1'), run('contour'), run('steady'))",
        # scipy.linalg adds about 8 MB to a process; trajectories need none of it
        "print(run('trajectory', '--set', 'nu=2', '--set', 'n0=0.5', '--set', 'n_trunc=14',",
        "          '--set', 'tail_tolerance=1e-4', '--set', 'dt=2e-3', '--set', 't_final=0.02',",
        "          '--set', 'n_traj=2', module='scipy.linalg'))",
        "print(run('steady', '--set', 'n_trunc=10'), 'scipy.linalg' in sys.modules)",
    ))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False False False", "False", "True True"]


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of each private module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            # dunders such as __all__ are read by Python, not by the package
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def _reads(tree: ast.Module):
    """(name, line) of every name the source reads: loaded names and attributes, and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_helper_is_read_by_the_package():
    # a private helper that only tests call is a second copy the product
    # does not use; public names are the package's API and are exempt
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    reads = {}
    for module, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((module, line))
    # a read inside the definition itself, such as a recursive call, does not count
    unread = [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in _private_definitions(tree)
        if all(where == module and first <= line <= last for where, line in reads.get(name, ()))
    ]
    assert unread == []
