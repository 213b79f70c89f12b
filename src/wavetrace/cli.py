"""Command-line front end.

Subcommands::

    forward    spec file -> invariant table (JSON)
    invert     table file -> recovered boundary data + spec file
    roundtrip  forward then invert, report the worst relative error
    verify     built-in identity suites, residuals as JSON or CSV
    badset     exceptional Floquet parameters and the factorization check
    graphs     the diagram census per order, with symmetry factors

Exit codes: 0 success, 1 failure (bad input or usage, failed verification),
2 obstruction (a named precondition of the inverse theory is violated).
All machine output is byte-stable for fixed inputs and seed: JSON with
sorted keys, CSV with a fixed column order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks
from .domain import DomainSpec, ObstructionError, genericity_check, parse_spec, write_spec
from .feynman import MAX_CENSUS_ORDER, automorphism_order, enumerate_graphs
from .hessian import badset_report
from .invariants import InvariantTable, check_size, forward_table
from .inverse import convex_representative, recover, recovered_spec

_MODES = {"top": "TopOnly", "full": "FullPrincipal"}


def _read_input(path: Path) -> str:
    if not path.is_file():
        raise ValueError(f"input file not found: {path}")
    return path.read_text(encoding="utf-8")


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# forward / invert / roundtrip: forward_table and recover check each job,
# under the names of the flags and fields that set it

_FORWARD_NAMES = ("--r-max", "--j-max", "--mode full")


def cmd_forward(args: argparse.Namespace) -> int:
    spec = parse_spec(_read_input(args.spec_file))
    report = genericity_check(spec)
    if report.flags and args.strict:
        raise ObstructionError(report.obstructions[0], report.flags[0])
    for flag in report.flags:
        print(f"warning: {flag}", file=sys.stderr)
    table = forward_table(spec, args.r_max, args.j_max, _MODES[args.mode], _FORWARD_NAMES)
    _emit(table.to_json_text(), args.out)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    table = InvariantTable.from_json(json.loads(_read_input(args.table_file)))
    if args.symmetry_class is not None:
        table = dataclasses.replace(table, symmetry_class=args.symmetry_class)
    if args.j_max is None:
        j_max, name = max(j for (_, j) in table.entries), "entries[].j"
    else:
        j_max, name = args.j_max, "--j-max"
    result = recover(table, j_max, name)
    spec = recovered_spec(table.symmetry_class, table.length, result.taylor, 2 * j_max)
    payload = {
        "class": table.symmetry_class,
        "report": result.to_json(),
        "spec": json.loads(write_spec(spec)),
    }
    sys.stdout.write(_dump_json(payload))
    if args.out is not None:
        args.out.write_text(write_spec(spec) + "\n", encoding="utf-8")
    return 0


def _expected_taylor(spec: DomainSpec, order: int) -> dict[int, float]:
    if spec.kind == "dihedral":
        return {
            k: (spec.f.derivative(k) if k % 2 == 0 else 0.0)
            for k in range(2, order + 1)
        }
    return convex_representative(spec, order)


def _check_tol(tol: float | None):
    """Refuse a NaN, infinite or negative ``--tol``: every residual would
    fail it.

    Raises:
        ValueError: naming ``--tol``.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol {tol!r} is out of range: --tol must be a finite number >= 0")


def cmd_roundtrip(args: argparse.Namespace) -> int:
    j_max, tol = args.j_max, args.tol
    _check_tol(tol)
    spec = parse_spec(_read_input(args.spec_file))
    table = forward_table(spec, args.r_max, j_max, _MODES[args.mode], _FORWARD_NAMES)
    result = recover(table, j_max)
    want = _expected_taylor(spec, 2 * j_max)
    rows = []
    for k in sorted(want):
        got = result.taylor.get(k, 0.0)
        rows.append(
            {
                "order": k,
                "recovered": got,
                "expected": want[k],
                "rel_error": abs(got - want[k]) / max(abs(want[k]), 1.0),
            }
        )
    worst = max(row["rel_error"] for row in rows)
    payload = {
        "class": table.symmetry_class,
        "max_rel_error": worst,
        "orders": rows,
        "status": "pass" if worst <= tol else "fail",
        "tolerance": tol,
    }
    if args.out is not None and args.out.suffix == ".csv":
        _emit(
            _rows_to_csv(rows, ["order", "recovered", "expected", "rel_error"]),
            args.out,
        )
    else:
        _emit(_dump_json(payload), args.out)
    return 0 if worst <= tol else 1


# ---------------------------------------------------------------------------
# verify: the acceptance gate's identity suites (wavetrace.checks) at the
# CLI's sizes; every suite draws from one generator seeded by --seed


_SUITES = {
    "circulant": lambda rng: checks.circulant_suite(
        rng, r_values=(1, 2, 3, 5, 8, 13, 25), draws=8
    ),
    "poincare": lambda rng: checks.poincare_suite(r_max=3),
    "feynman": lambda rng: checks.feynman_suite(rng, problems=20, n_max=3),
    "amplitude": lambda rng: checks.amplitude_suite(),
    "decay": lambda rng: checks.decay_suite(),
}


def cmd_verify(args: argparse.Namespace) -> int:
    _check_tol(args.tol)
    names = args.suites or sorted(_SUITES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {unknown}; available: {sorted(_SUITES)}"
        )
    rng = np.random.default_rng(args.seed)
    rows = []
    for name in names:
        for row in _SUITES[name](rng):
            tol = args.tol if args.tol is not None else row["tolerance"]
            status = "pass" if row["residual"] <= tol else "fail"
            rows.append({"suite": name, **row, "tolerance": tol, "status": status})
    for row in rows:
        print(
            f"{row['status'].upper():4} {row['suite']}: {row['check']} "
            f"(residual {row['residual']:.3e}, tol {row['tolerance']:g})"
        )
    failed = sum(row["status"] == "fail" for row in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    if args.out is not None:
        if args.out.suffix == ".csv":
            text = _rows_to_csv(
                rows, ["suite", "check", "residual", "tolerance", "status"]
            )
        else:
            text = _dump_json({"seed": args.seed, "checks": rows})
        args.out.write_text(text, encoding="utf-8")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# dumps


def cmd_badset(args: argparse.Namespace) -> int:
    _emit(_dump_json(badset_report()), args.out)
    return 0


def cmd_graphs(args: argparse.Namespace) -> int:
    j_max = args.j_max
    check_size(j_max, "--j-max")
    if j_max > MAX_CENSUS_ORDER:
        raise ValueError(
            f"--j-max {j_max} is out of range: the graph catalog supports "
            f"1 <= --j-max <= {MAX_CENSUS_ORDER}"
        )
    catalog = []
    for j in range(1, j_max + 1):
        # the census counted the vertex automorphisms of each class in the
        # labelling it lists, so each |Aut| is a table lookup
        graphs = enumerate_graphs(j)
        catalog.append(
            {
                "order": j,
                "count": len(graphs),
                "graphs": [
                    {**g.to_json(), "symmetry_factor": automorphism_order(g)} for g in graphs
                ],
            }
        )
    _emit(_dump_json(catalog), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise `ValueError`, so that
    `main` reports them as bad input (exit 1); its subparsers share the
    class."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each `add_argument`
    builds a help formatter, which asks for the terminal size."""
    parser = _Parser(
        prog="wavetrace",
        description="Wave-invariant tables of bouncing-ball orbits: "
        "forward computation, inversion, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, r=False, j=False, mode=False, tol=False, seed=False):
        if r:
            p.add_argument("--r-max", type=int, default=3,
                           help="largest orbit iterate (default 3)")
        if j:
            p.add_argument("--j-max", type=int, default=None,
                           help="largest invariant order")
        if mode:
            p.add_argument("--mode", choices=("top", "full"), default="top",
                           help="top: closed forms; full: diagram sums")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance override")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the randomized checks")
        p.add_argument("--out", type=Path, default=None,
                       help="write the payload here instead of stdout")

    p = sub.add_parser("forward", help="spec file -> invariant table")
    p.add_argument("spec_file", type=Path)
    p.add_argument("--strict", action="store_true",
                   help="treat genericity flags as errors (exit 2)")
    add_common(p, r=True, j=True, mode=True)
    p.set_defaults(j_max=3)

    p = sub.add_parser("invert", help="invariant table -> boundary data")
    p.add_argument("table_file", type=Path)
    p.add_argument("--class", dest="symmetry_class", default=None,
                   help="override the table's symmetry class")
    add_common(p, j=True)  # default: the table's largest order

    p = sub.add_parser("roundtrip", help="forward then invert a spec file")
    p.add_argument("spec_file", type=Path)
    add_common(p, r=True, j=True, mode=True, tol=True)
    p.set_defaults(j_max=3, tol=1e-8)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of {sorted(_SUITES)} (default: all)")
    add_common(p, tol=True, seed=True)

    p = sub.add_parser("badset", help="exceptional Floquet parameters")
    add_common(p)

    p = sub.add_parser("graphs", help="diagram census per order")
    add_common(p, j=True)
    p.set_defaults(j_max=2)
    return parser


_COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "roundtrip": cmd_roundtrip,
    "verify": cmd_verify,
    "badset": cmd_badset,
    "graphs": cmd_graphs,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ObstructionError as exc:
        print(f"obstruction[{exc.name}]: {exc.reason}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
