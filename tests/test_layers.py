"""Import layering: each trapcool module imports only the modules below it.

The order is errors, hilbert, gaussian, models, sme, scenario, validation,
cli. Imports inside function bodies count too, so a lazy import cannot
hide a cycle. The package facade, __init__, is exempt.
"""
import ast
import pathlib

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
