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


def _exports() -> dict:
    """Each exported name and the stem of the module that defines it."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"}


def _reads(stem, tree) -> set:
    """(module, name) of each name the module ``stem`` reads: ``alias.name``
    with the alias bound to a package module, or a bare name, resolved to
    the module it is imported from, else to ``stem`` itself.  A local of
    the same name as another module's export is not a read of it."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            read.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(names.get(node.id, (stem, node.id)))
    return read


def test_every_export_has_an_in_package_reader():
    read = set().union(*(_reads(stem, tree) for stem, tree in _modules().items()))
    assert read, "no read found: the scan is broken"
    unread = {name for name, home in _exports().items() if (home, name) not in read}
    assert unread == NO_CALLER_ALLOWED


def test_reads_are_scoped_to_the_defining_module():
    # a local named like another module's export reads the local; an alias
    # or an import of the defining module reads the export
    local = ast.parse("def f():\n    moment = 1.0\n    return moment\n")
    assert ("guessing", "moment") not in _reads("verify", local)
    assert ("verify", "moment") in _reads("verify", local)
    aliased = ast.parse("from . import guessing as gu\nx = gu.moment\n")
    imported = ast.parse("from .guessing import moment as m\nx = m\n")
    for tree in (aliased, imported):
        assert ("guessing", "moment") in _reads("verify", tree)
    assert ("guessing", "moment") not in _reads("verify", ast.parse("x = so.moment\n"))


def test_every_public_method_of_an_export_has_an_in_package_reader():
    # a method or property is read as an attribute: ``order.sequence()``,
    # ``law.size``
    exports, methods, read = _exports(), set(), set()
    for tree in _modules().values():
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
