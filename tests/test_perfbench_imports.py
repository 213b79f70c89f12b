"""The benchmark scripts under perfbench/ import only names that exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_exist():
    imported = set()
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "wavetrace" or node.module.startswith("wavetrace.")
            ):
                imported |= {(script.name, node.module, a.name) for a in node.names}
    assert imported, "perfbench/ imports nothing from wavetrace"
    missing = [
        f"perfbench/{script}: from {module} import {name}"
        for script, module, name in sorted(imported)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
