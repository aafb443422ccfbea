"""A dead-code guard over ``src/kvtrade``: every module uses what it imports, and every
module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "kvtrade"
# every module but __init__.py, whose imports are the package's exports
TREES = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SOURCE.glob("*.py"))
         if path.name != "__init__.py"}


def imported(tree):
    """The names a module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def defined(tree):
    """The ``_private`` names a module binds at module level (dunders aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def read(tree):
    """Every name a module reads: bare names and attributes, and the names other modules import from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unused_import_or_unread_private_name():
    everywhere = {name for tree in TREES.values() for name in read(tree)}
    problems = []
    for module, tree in TREES.items():
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        problems += [f"{module}: import {name} is never used" for name in imported(tree) if name not in loads]
        problems += [f"{module}: {name} is never read" for name in defined(tree) if name not in everywhere]
    assert not problems, "\n".join(problems)
