"""The package exports only what its own commands and checks use.

A function that no module of ``guesswork`` reads is a second path or a
test oracle; oracles live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import guesswork

PACKAGE = Path(guesswork.__file__).resolve().parent

# ROADMAP item 6c: the iid simplex oracle holds the package's scipy import,
# which the benchmark's child process reads, so it stays exported until the
# benchmark stops reading it.
NO_CALLER_ALLOWED = {"iid_exponent_grid"}


def test_every_export_has_an_in_package_reader():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exports - read == NO_CALLER_ALLOWED
