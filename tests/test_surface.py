"""The package exports only what its own commands and checks use.

A function that no module of ``guesswork`` reads is a second path or a
test oracle; oracles live in ``tests/oracles.py``.  The same holds for
the public methods and static methods of an exported class.
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
    # a method is read as an attribute: ``order.sequence()``
    exports, methods, read = _exports(), set(), set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in exports:
                methods |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not any(isinstance(d, ast.Name) and d.id == "property"
                                        for d in item.decorator_list)}
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert methods, "no public method found: the scan is broken"
    assert {m for m in methods if m.split(".")[1] not in read} == set()
