"""The benchmark scripts under perfbench/ import only names that exist, and
its layer probes run."""

from __future__ import annotations

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _wavetrace_imports(tree: ast.AST) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, imported name) of each import from wavetrace;
    the imported name is None for ``import wavetrace.x as y``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "wavetrace" or node.module.startswith("wavetrace.")
        ):
            bound.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({
                a.asname: (a.name, None)
                for a in node.names
                if a.asname and a.name.startswith("wavetrace.")
            })
    return bound


def _resolve(module: str, name: str | None):
    target = importlib.import_module(module)
    return target if name is None else getattr(target, name, None)


def _scripts():
    for script in sorted(PERFBENCH.glob("*.py")):
        yield script.name, ast.parse(script.read_text(), filename=str(script))


def test_perfbench_imports_exist():
    imported = {
        (script, module, name)
        for script, tree in _scripts()
        for module, name in _wavetrace_imports(tree).values()
        if name is not None
    }
    assert imported, "perfbench/ imports nothing from wavetrace"
    missing = [
        f"perfbench/{script}: from {module} import {name}"
        for script, module, name in sorted(imported)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_perfbench_attributes_exist():
    # the probes read methods off imported names (MultiJet.zero,
    # CirculantHessian.from_spec); a deleted one would fail only when the
    # benchmark runs
    read, missing = set(), []
    for script, tree in _scripts():
        bound = _wavetrace_imports(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                read.add((node.value.id, node.attr))
                if not hasattr(_resolve(*bound[node.value.id]), node.attr):
                    missing.append(f"perfbench/{script}: {node.value.id}.{node.attr}")
    assert {("MultiJet", "variable"), ("MultiJet", "zero")} <= read
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


def test_probe_groups_run_and_give_finite_values():
    # each group is one fresh interpreter, as the traced benchmark runs it;
    # the probes call library functions whose contracts change, such as the
    # degrees `build_principal` returns
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    groups = ("census", "first-shape", "warm")
    procs = {
        group: subprocess.Popen(
            [sys.executable, str(PERFBENCH / "probes.py"), group], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for group in groups
    }
    for group, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (group, err)
        metrics = json.loads(out.splitlines()[-1])
        assert metrics, group
        bad = {name: value for name, value in metrics.items()
               if not (isinstance(value, (int, float)) and math.isfinite(value))}
        assert not bad, (group, bad)
