"""Guards over ``src/kvtrade``: every module uses what it imports, every module-level private
name is read somewhere in the package, and a private attribute of another object is read only
in the module whose classes define it."""

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


def class_attributes(tree):
    """The ``_private`` attribute names a module's classes define: in a class body (fields and
    methods) or assigned to ``self`` in a method (dunders aside)."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield node.attr


def private_reads(tree):
    """Every ``obj._x`` in a module whose ``obj`` is not ``self`` or ``cls`` (dunders aside)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield node


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


def test_a_private_attribute_is_read_only_where_its_class_is_defined():
    owners = {module: set(class_attributes(tree)) for module, tree in TREES.items()}
    problems = [f"{module}:{node.lineno}: {ast.unparse(node)} reads an attribute no class of {module} defines"
                for module, tree in TREES.items() for node in private_reads(tree) if node.attr not in owners[module]]
    assert not problems, "\n".join(problems)
    # so a cache's storage is read in cache.py alone
    storage = {"_positions", "_residual_k", "_residual_v", "_joined"}
    assert [module for module, names in owners.items() if storage & names] == ["cache.py"]
