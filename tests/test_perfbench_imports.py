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


def test_counted_functions_exist():
    # the traced run counts calls of public functions under the layer that
    # defines them; a renamed or moved one would leave its counter reading 0
    # with no error
    script = PERFBENCH / "run.py"
    counted = None
    for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNTED" for t in node.targets
        ):
            counted = ast.literal_eval(node.value)
    assert counted, "perfbench/run.py defines no COUNTED table"
    missing = []
    for metric, name in sorted(counted.items()):
        module, _, function = name.rpartition(".")
        target = getattr(importlib.import_module(f"wavetrace.{module}"), function, None)
        if (
            function.startswith("_")
            or not callable(target)
            or target.__module__ != f"wavetrace.{module}"
            or target.__qualname__ != function
        ):
            missing.append(f"{metric}: wavetrace.{name}")
    assert not missing
