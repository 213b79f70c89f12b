"""Every public name of the package is read by the package itself or by a
benchmark script under perfbench/: no public name that only a test reads."""

from __future__ import annotations

import ast
from pathlib import Path

from test_perfbench_imports import _scripts, _wavetrace_imports

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavetrace"

# entry points, read by the installed script rather than by package code
ENTRY_POINTS = {("cli", "main")}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _public_names(tree: ast.Module) -> set[str]:
    """The names in ``__all__``, or every public top-level def and class."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _bindings(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """Local name -> (module, name) of each name imported from a package
    module, and local name -> module of each imported package module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module and node.module.startswith("wavetrace"):
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None:
                modules[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return names, modules


def _references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each package name that ``tree`` reads, leaving out
    what a top-level def or class reads of itself."""
    names, modules = _bindings(tree)
    found = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = names.get(node.id, (module, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref != (module, own):
                found.add(ref)
    return found


def _unread(modules: dict[str, ast.Module]) -> list[str]:
    read = set(ENTRY_POINTS)
    for module, tree in modules.items():
        read |= _references(module, tree)
    for _, tree in _scripts():
        for source, name in _wavetrace_imports(tree).values():
            if name is not None:
                read.add((source.partition(".")[2], name))
    return sorted(
        f"wavetrace.{module}.{name}"
        for module, tree in modules.items()
        for name in _public_names(tree)
        if (module, name) not in read
    )


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    assert not _unread(_modules())


def test_a_name_read_only_by_itself_is_reported():
    # the scan must not count a function's own recursive call, nor the
    # string in __all__, as a reader
    tree = ast.parse(
        '__all__ = ["lonely", "used"]\n'
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n"
        "def used():\n    return 1\n"
        "def _private():\n    return used()\n"
    )
    assert _unread({"fake": tree}) == ["wavetrace.fake.lonely"]


def _unread_imports(modules: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each name a module imports and never reads;
    ``from __future__`` imports bind no name to read."""
    unread = []
    for module, tree in modules.items():
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                local = ((a.asname or a.name).partition(".")[0] for a in node.names)
                unread += [f"{module}.{name}" for name in local if name not in read]
    return sorted(unread)


def test_every_import_of_the_package_is_read():
    assert not _unread_imports(_modules())


def test_an_unread_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert _unread_imports({"fake": tree}) == ["fake.field", "fake.os"]
