"""The package exports only what its own commands and checks use.

A function that no module of ``guesswork`` reads is a second path or a
test oracle; oracles live in ``tests/oracles.py``.  The same holds for
the public methods, properties and static methods of an exported class.
The package runs no threads, so no module imports a thread or executor
library.
"""

import ast
from pathlib import Path

import guesswork

PACKAGE = Path(guesswork.__file__).resolve().parent

# ROADMAP item 6c: the iid simplex oracle holds the package's scipy import,
# which the benchmark's child process reads, so it stays exported until the
# benchmark stops reading it.
NO_CALLER_ALLOWED = {"iid_exponent_grid"}


def _exports() -> set:
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _modules():
    return [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"]


def test_every_export_has_an_in_package_reader():
    read = set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert _exports() - read == NO_CALLER_ALLOWED


def test_every_public_method_of_an_export_has_an_in_package_reader():
    # a method or property is read as an attribute: ``order.sequence()``,
    # ``spec.num_keys``
    exports, methods, read = _exports(), set(), set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in exports:
                methods |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")}
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert methods, "no public method found: the scan is broken"
    assert {m for m in methods if m.split(".")[1] not in read} == set()


def test_no_module_imports_threads():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported, "no import found: the scan is broken"
    assert imported & {"threading", "concurrent", "_thread"} == set()
