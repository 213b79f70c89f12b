"""One benchmark operation: `wavetrace forward`, `wavetrace invert`, check.

Both calls go through the CLI entry point `wavetrace.cli.main`, called in
the benchmark's own process with spec and table files on disk, exactly as
`wavetrace forward spec.json ... --out table.json` and
`wavetrace invert table.json` would run them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    TOL,
    Item,
    Workload,
    check_recovery,
    check_table,
    expected_taylor,
    recovery_error,
)


@dataclass
class ItemResult:
    forward_s: float
    invert_s: float
    failures: list[str] = field(default_factory=list)
    # worst relative error of the recovered data; None when invert failed
    recovery_err: float | None = None

    @property
    def item_s(self) -> float:
        return self.forward_s + self.invert_s


def _call(cli_module, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, captured stdout and wall time of one CLI invocation.

    `cli_module.main` is looked up at call time so that a traced run sees
    the wrapped entry point.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_module.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), time.perf_counter() - t0


def write_specs(workdir: Path, items: list[Item]) -> list[Path]:
    paths = []
    for i, item in enumerate(items):
        path = workdir / f"item{i}.spec.json"
        path.write_text(json.dumps(item.spec), encoding="utf-8")
        paths.append(path)
    return paths


def run_item(cli_module, workload: Workload, item: Item, spec_path: Path) -> ItemResult:
    table_path = spec_path.with_name(spec_path.name.replace(".spec.", ".table."))
    table_path.unlink(missing_ok=True)
    fwd_code, _, fwd_s = _call(
        cli_module,
        ["forward", str(spec_path), *workload.forward_args(), "--out", str(table_path)],
    )
    if fwd_code != 0:
        return ItemResult(fwd_s, 0.0, [f"forward exited {fwd_code}"])
    inv_code, inv_out, inv_s = _call(cli_module, ["invert", str(table_path)])
    result = ItemResult(fwd_s, inv_s)
    table = json.loads(table_path.read_text(encoding="utf-8"))
    result.failures += check_table(table, workload.r_max, workload.j_max)
    if inv_code != 0:
        result.failures.append(f"invert exited {inv_code}")
        return result
    taylor = json.loads(inv_out)["report"]["taylor"]
    recovered = {int(k): float(v) for k, v in taylor.items()}
    expected = expected_taylor(item.spec["f"], workload.order)
    result.recovery_err = recovery_error(recovered, expected)
    result.failures += check_recovery(recovered, expected)
    return result


def is_expected_failure(item: Item, result: ItemResult) -> bool:
    """True when the only failure is a known fault's recovery error, and that
    error is no worse than the item's ceiling."""
    return (
        item.fault_ceiling is not None
        and result.recovery_err is not None
        and TOL < result.recovery_err <= item.fault_ceiling
        and len(result.failures) == 1
    )
