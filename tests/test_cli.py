"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavetrace
from wavetrace import cli, feynman, invariants, inverse
from wavetrace.cli import main
from wavetrace.domain import MAX_BOUNCES, parse_spec
from wavetrace.invariants import InvariantTable, forward_table

UPDOWN = {
    "kind": "updown",
    "L": 2.0,
    "f": [1.0, 0.0, -0.31, 0.12, 0.05, -0.033, 0.021, 0.011, -0.017, 0.009, 0.004],
}


UPDOWN_TABLE = {"L": 2.0, "a": 3.0, "class": "updown", "normalization": "TopOnly"}


def write_updown(tmp_path, name="spec.json", payload=UPDOWN):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def dihedral_payload(m=3, L=3.0):
    c0 = L / (m * math.sin(math.pi / m))
    return {
        "kind": "dihedral",
        "L": L,
        "m": m,
        "f": [c0, 0.0, 0.21, 0.0, -0.09, 0.0, 0.04, 0.0, 0.013, 0.0, -0.006],
    }


# ---------------------------------------------------------------------------
# forward


def test_forward_writes_the_table(tmp_path):
    spec_file = write_updown(tmp_path)
    out = tmp_path / "table.json"
    rc = main(["forward", str(spec_file), "--r-max", "2", "--j-max", "3",
               "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"L", "a", "class", "normalization", "entries"}
    assert blob["class"] == "updown"
    assert len(blob["entries"]) == 6
    table = InvariantTable.from_json(blob)
    spec = parse_spec(spec_file.read_text())
    assert table.entries == forward_table(spec, 2, 3).entries


def test_forward_strict_flags_exceptional_floquet(tmp_path, capsys):
    bad = dict(UPDOWN, f=[1.0, 0.0, -0.25, 0.12, 0.05])  # lands on a = 0
    spec_file = write_updown(tmp_path, payload=bad)
    assert main(["forward", str(spec_file), "--strict"]) == 2
    assert "obstruction[" in capsys.readouterr().err
    # without --strict the table is still produced, with warnings
    out = tmp_path / "t.json"
    assert main(["forward", str(spec_file), "--r-max", "1", "--j-max", "1",
                 "--out", str(out)]) == 0
    assert "warning" in capsys.readouterr().err
    assert out.is_file()


def test_forward_keeps_the_obstruction_name_and_reason_of_a_flag(tmp_path, capsys):
    # (1 - L/R_A)(1 - L/R_B) < 0: the orbit reverses orientation
    reversing = {"kind": "twoarc", "L": 2, "f": [1, 0, 0, 0.1, 0],
                 "f_minus": [-1, 0, 0.5, 0.1, 0]}
    spec_file = write_updown(tmp_path, payload=reversing)
    assert main(["forward", str(spec_file), "--strict"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("obstruction[unsupported]: (1 - L/R_A)(1 - L/R_B) = -1 < 0")
    assert "orientation-reversing" in err
    main(["forward", str(spec_file), "--j-max", "2"])
    warning = capsys.readouterr().err.splitlines()[0]
    assert warning.startswith("warning: (1 - L/R_A)") and "orientation-reversing" in warning


def test_forward_missing_file(tmp_path, capsys):
    assert main(["forward", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_forward_rejects_a_nan_coefficient(tmp_path, capsys):
    bad = dict(UPDOWN, f=[1.0, 0.0, float("nan"), 0.12, 0.05])
    spec_file = write_updown(tmp_path, payload=bad)
    out = tmp_path / "t.json"
    assert main(["forward", str(spec_file), "--out", str(out)]) == 1
    assert "'f[2]'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["top", "full"])
def test_forward_names_a_resonant_iterate_in_both_modes(tmp_path, capsys, mode):
    # a = 1 puts a symbol pole at r = 3, k = 2
    resonant = dict(UPDOWN, f=[1.0, 0.0, -0.375, 0.203, 0.031, -0.136, 0.231, -0.157, -0.037])
    spec_file = write_updown(tmp_path, payload=resonant)
    rc = main(["forward", str(spec_file), "--mode", mode, "--r-max", "3", "--j-max", "4"])
    assert rc == 2
    assert "obstruction[symbol-pole]" in capsys.readouterr().err


def _readme_tail(L, a):
    """An updown spec of length L and Floquet datum a = -2 (1 + 2 L c2),
    with the c3... tail of UPDOWN."""
    return dict(UPDOWN, L=L, f=[L / 2, 0.0, (-a / 2 - 1) / (2 * L), *UPDOWN["f"][3:]])


@pytest.mark.parametrize("mode", ["top", "full"])
@pytest.mark.parametrize(
    "L, a, code",
    [(1e12, 3.0, 0), (1e6, -1 + 5e-8, 0), (1e6, -1 + 5e-11, 2)],
    ids=["long-orbit", "near-pole", "at-pole"],
)
def test_a_long_orbit_ends_alike_in_both_modes(tmp_path, capsys, mode, L, a, code):
    # the orbit Hessian scales as 1/L: a full-mode problem is refused as
    # singular relative to its largest eigenvalue, and only the symbol
    # pole test refuses an iterate near a pole, in both modes
    spec_file = write_updown(tmp_path, payload=_readme_tail(L, a))
    rc = main(["forward", str(spec_file), "--mode", mode, "--r-max", "3", "--j-max", "3"])
    err = capsys.readouterr().err
    assert rc == code, err
    if code == 2:
        assert "obstruction[symbol-pole]" in err


@pytest.mark.parametrize("mode", ["top", "full"])
@pytest.mark.parametrize("command", ["forward", "roundtrip"])
def test_a_j_max_past_the_arcs_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, mode
):
    # order j reads f^(2j)(0): Taylor data to order 5 admit --j-max <= 2
    def no_work(*args):
        raise AssertionError("an iterate's Hessian was inverted")

    monkeypatch.setattr(invariants, "stacked_parity_sums", no_work)
    spec_file = write_updown(tmp_path, payload=dict(UPDOWN, f=UPDOWN["f"][:6]))
    argv = [command, str(spec_file), "--mode", mode, "--r-max", "3", "--j-max", "3"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --j-max 3 is out of range")
    assert "field 'f' carries Taylor data to order 5" in err and "--j-max <= 2" in err
    twoarc = {"kind": "twoarc", "L": 2.0, "f": UPDOWN["f"],
              "f_minus": [-1.0, 0.0, 0.2, 0.07, -0.04]}
    spec_file = write_updown(tmp_path, payload=twoarc)
    assert main([command, str(spec_file), "--mode", mode, "--j-max", "3"]) == 1
    err = capsys.readouterr().err
    assert "--j-max 3" in err and "field 'f_minus'" in err and "--j-max <= 2" in err


def test_census_limits_are_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def census(order):
        raise AssertionError(f"order-{order} census started")

    monkeypatch.setattr(feynman, "_census", census)
    limit = feynman.MAX_CENSUS_ORDER
    assert main(["graphs", "--j-max", str(limit + 1)]) == 1
    err = capsys.readouterr().err
    assert "--j-max" in err and f"<= {limit}" in err
    spec_file = write_updown(tmp_path)
    for command in ("forward", "roundtrip"):
        argv = [command, str(spec_file), "--mode", "full", "--j-max", str(limit + 2)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--j-max" in err and f"<= {limit + 1}" in err


def test_warm_graph_catalog_searches_no_class(capsys, monkeypatch):
    # the census counts each class's vertex automorphisms, so printing the
    # catalog searches no table again
    def search(adj, runs):
        raise AssertionError(f"table {adj} searched again")

    for cache in (feynman._census, feynman._orderly_tables, feynman.automorphism_order):
        cache.cache_clear()
    limit = feynman.MAX_CENSUS_ORDER
    for order in range(1, limit + 1):
        feynman.enumerate_graphs(order)
    monkeypatch.setattr(feynman, "_orderly_stabilizer", search)
    assert main(["graphs", "--j-max", str(limit)]) == 0
    catalog = json.loads(capsys.readouterr().out)
    graphs = [g for entry in catalog for g in entry["graphs"]]
    assert len(graphs) == sum(len(feynman.enumerate_graphs(o)) for o in range(1, limit + 1))
    assert all(g["automorphisms"] == g["symmetry_factor"] for g in graphs)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("forward", "--r-max"),
        ("forward", "--j-max"),
        ("roundtrip", "--r-max"),
        ("roundtrip", "--j-max"),
        ("invert", "--j-max"),
        ("graphs", "--j-max"),
    ],
)
def test_size_flags_below_one_are_named(tmp_path, capsys, command, flag):
    spec_file = write_updown(tmp_path)
    table_file = tmp_path / "table.json"
    main(["forward", str(spec_file), "--out", str(table_file)])
    source = {"forward": [str(spec_file)], "roundtrip": [str(spec_file)],
              "invert": [str(table_file)], "graphs": []}[command]
    assert main([command, *source, flag, "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{flag} 0" in err and ">= 1" in err


@pytest.mark.parametrize(
    "command, payload, r_max, limit",
    [
        ("forward", UPDOWN, 300, 230),
        ("roundtrip", UPDOWN, 300, 230),
        ("forward", dict(UPDOWN, L=0.1, f=[0.05, 0.0, -2.0, 0.2, 0.13]), 1600, 250),
    ],
)
def test_iterates_past_the_range_limit_are_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, payload, r_max, limit
):
    # A_r = 2rL (i/(2 pi L))^r: at L = 2 the r >= 298 entries underflowed
    # to 0, which recovery divided by; at L = 0.1 L^-r overflowed
    def no_work(*args, **kwargs):
        raise AssertionError("an iterate's Hessian was inverted")

    monkeypatch.setattr(invariants, "stacked_parity_sums", no_work)
    spec_file = write_updown(tmp_path, payload=payload)
    assert main([command, str(spec_file), "--r-max", str(r_max), "--j-max", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --r-max {r_max} is out of range")
    assert f"r = {limit}" in err


def test_a_table_at_the_range_limit_holds_normal_numbers(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    table_file = tmp_path / "table.json"
    argv = ["--r-max", "230", "--j-max", "2"]
    assert main(["forward", str(spec_file), *argv, "--out", str(table_file)]) == 0
    table = InvariantTable.from_json(json.loads(table_file.read_text()))
    assert min(abs(v) for v in table.entries.values()) > 1e-290
    assert main(["roundtrip", str(spec_file), *argv]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_invert_names_an_entry_past_the_range_limit(tmp_path, capsys):
    # the r <= 300 table the forward map wrote before the limit: its
    # entries past r = 297 were exactly 0, and recovery divided by A_r
    table = forward_table(parse_spec(json.dumps(UPDOWN)), 230, 2)
    entries = dict(table.entries)
    entries.update({(r, j): 0j for r in range(231, 301) for j in (1, 2)})
    table_file = tmp_path / "table.json"
    payload = InvariantTable(table.length, table.floquet_parameter, table.symmetry_class,
                             table.normalization, entries).to_json()
    table_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["invert", str(table_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: table: entries[460].r 231 is out of range")
    assert "r = 230" in err


def _dihedral_table(symmetry_class="dihedral-3", r=1):
    return {"L": 3.0, "a": 3.9, "class": symmetry_class, "normalization": "TopOnly",
            "entries": [{"r": r, "j": 1, "re": 0.5, "im": 0.0}]}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["forward", "SPEC", "--r-max", str(MAX_BOUNCES // 3 + 1)], "--r-max is out"),
        (["roundtrip", "SPEC", "--r-max", str(MAX_BOUNCES // 3 + 1)], "--r-max is out"),
        (["forward", "SPEC:m", "--r-max", "1"], "field 'm' is out"),
        (["invert", "TABLE:class"], "table: field 'class' 'dihedral-x'"),
        (["invert", "TABLE:m"], f"table: field 'class' 'dihedral-{MAX_BOUNCES + 1}'"),
        (["invert", "TABLE:r"], "table: entries[0].r is out"),
        (["invert", "TABLE", "--class", "dihedral-1"], "class 'dihedral-1' is invalid"),
    ],
    ids=["forward-r-max", "roundtrip-r-max", "m", "class-x", "class-m", "entry-r",
         "class-override"],
)
def test_dihedral_jobs_past_their_limits_are_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, named
):
    # each value is just past its limit, so the unchecked job stays cheap
    def no_work(*args):
        raise AssertionError("a dihedral Hessian was inverted")

    monkeypatch.setattr(invariants, "dihedral_inverse_entry", no_work)
    monkeypatch.setattr(inverse, "dihedral_inverse_entry", no_work)
    payloads = {
        "SPEC": dihedral_payload(),
        "SPEC:m": dihedral_payload(m=MAX_BOUNCES + 1),
        "TABLE": _dihedral_table(),
        "TABLE:class": _dihedral_table("dihedral-x"),
        "TABLE:m": _dihedral_table(f"dihedral-{MAX_BOUNCES + 1}"),
        "TABLE:r": _dihedral_table(r=MAX_BOUNCES // 3 + 1),
    }
    path = write_updown(tmp_path, payload=payloads[argv[1]])
    assert main([argv[0], str(path), *argv[2:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "dihedral-<m>" in err or "bounces" in err


# ---------------------------------------------------------------------------
# invert / roundtrip


def test_invert_emits_report_and_spec(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    table_file = tmp_path / "table.json"
    main(["forward", str(spec_file), "--r-max", "3", "--j-max", "4",
          "--out", str(table_file)])
    rec_file = tmp_path / "recovered.json"
    rc = main(["invert", str(table_file), "--j-max", "4", "--out", str(rec_file)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"class", "report", "spec"}
    assert report["report"]["taylor"]["2"] == pytest.approx(0.62, rel=1e-12)
    # the emitted spec reproduces the table it came from
    recovered = parse_spec(rec_file.read_text())
    original = forward_table(parse_spec(spec_file.read_text()), 3, 4)
    again = forward_table(recovered, 3, 4)
    for key, value in original.entries.items():
        assert again.entries[key] == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly"}, "'entries'"),
        ([1, 2], "JSON object"),
        ({"L": 2, "class": "updown", "normalization": "TopOnly", "entries": []}, "'a'"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5}]}, "'im'"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": []}, "'entries'"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 0, "j": 1, "re": 0.5, "im": 0.0}]}, "entries[0].r"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0},
                      {"r": 1, "j": 0, "re": 0.5, "im": 0.0}]}, "entries[1].j"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0},
                      {"r": 1, "j": 1, "re": 123.0, "im": 0.0}]}, "entries[1]"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 231, "j": 1, "re": 0.5, "im": 0.0}]}, "entries[0].r"),
        ({"L": 0, "a": 3, "class": "dihedral-3", "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0},
                      {"r": 1, "j": 2, "re": 0.5, "im": 0.0}]}, "'L'"),
        ({"L": 2, "a": 1, "class": None, "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}]}, "table: field 'class'"),
        ({"L": 2, "a": 1, "class": ["updown"], "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}]}, "table: field 'class'"),
        ({"L": 2, "a": 1, "class": True, "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}]}, "table: field 'class'"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": None,
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}]},
         "table: field 'normalization'"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": True, "j": 1, "re": 0.5, "im": 0.0}]}, "entries[0].r must be an integer"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0},
                      {"r": 1, "j": False, "re": 0.5, "im": 0.0}]}, "entries[1].j must be an integer"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [{"r": 1.0, "j": 1, "re": 0.5, "im": 0.0}]}, "entries[0].r must be an integer"),
        ({"L": 2, "a": 1, "class": "updown", "normalization": "TopOnly",
          "entries": [[1, 1, 0.5, 0.0]]}, "entries[0] must be an object"),
    ],
)
def test_invert_rejects_a_malformed_table(tmp_path, capsys, payload, named):
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["invert", str(table_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: table") and named in err


@pytest.mark.parametrize("field", ["re", "im"])
@pytest.mark.parametrize(
    "value, fault",
    [(math.nan, "must be finite, got nan"), (-math.inf, "must be finite, got -inf"),
     ("0.5", "must be a number, got '0.5'"), (None, "must be a number, got None"),
     (True, "must be a number, got True")],
)
def test_invert_names_an_entry_value_that_is_not_a_finite_number(tmp_path, capsys, field, value, fault):
    entries = [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}, {"r": 2, "j": 1, "re": 0.5, "im": 0.0}]
    entries[1][field] = value
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(dict(UPDOWN_TABLE, entries=entries)), encoding="utf-8")
    assert main(["invert", str(table_file)]) == 1
    assert capsys.readouterr().err == f"error: field 'entries[1].{field}' {fault}\n"


def test_integer_entry_values_are_read_as_floats():
    entries = [{"r": 1, "j": 1, "re": 3, "im": -2}, {"r": 2, "j": 1, "re": 0.5, "im": 0}]
    table = InvariantTable.from_json(dict(UPDOWN_TABLE, entries=entries))
    assert table.entries == {(1, 1): complex(3.0, -2.0), (2, 1): complex(0.5, 0.0)}


def test_invert_checks_the_census_limit_of_a_full_table(tmp_path, capsys, monkeypatch):
    # FullPrincipal rows to j = 4 plus closed-form rows at j = 5: recovering
    # order 5 would need the order-4 census for its remainders
    spec = parse_spec(json.dumps(UPDOWN))
    table = forward_table(spec, 2, 4, normalization="FullPrincipal")
    top = forward_table(spec, 2, 5)
    table.entries.update({(r, 5): top.entry(r, 5) for r in (1, 2)})
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(table.to_json()), encoding="utf-8")

    census = feynman._census

    def guarded(order):
        if order > feynman.MAX_CENSUS_ORDER:
            raise AssertionError(f"census of order {order} started")
        return census(order)

    monkeypatch.setattr(feynman, "_census", guarded)
    limit = feynman.MAX_CENSUS_ORDER + 1
    assert main(["invert", str(table_file)]) == 1
    err = capsys.readouterr().err
    assert "entries" in err and f"<= {limit}" in err
    assert main(["invert", str(table_file), "--j-max", str(limit + 1)]) == 1
    err = capsys.readouterr().err
    assert "--j-max" in err and f"<= {limit}" in err
    # the orders the census covers still recover
    assert main(["invert", str(table_file), "--j-max", str(limit)]) == 0


def test_full_jobs_past_the_cost_limit_are_refused_before_any_jet(tmp_path, capsys, monkeypatch):
    def build(*args):
        raise AssertionError("a principal problem was built")

    monkeypatch.setattr(invariants, "build_principal", build)
    spec_file = write_updown(tmp_path)
    for command in ("forward", "roundtrip"):
        argv = [command, str(spec_file), "--mode", "full", "--r-max", "6", "--j-max", "4"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--r-max 6 with --j-max 4 is too large for --mode full" in err
        assert "--r-max <= 5" in err
    table = InvariantTable(2.0, 0.48, "updown", "FullPrincipal",
                           {(r, j): 1j for r in range(1, 7) for j in range(1, 5)})
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(table.to_json()), encoding="utf-8")
    assert main(["invert", str(table_file)]) == 1
    err = capsys.readouterr().err
    # the same words as the census refusal of the same table
    assert "entries[].r 6 with entries[].j 4 is too large for a FullPrincipal table" in err
    assert main(["invert", str(table_file), "--j-max", "4"]) == 1
    assert "entries[].r 6 with --j-max 4" in capsys.readouterr().err


def _count_calls(monkeypatch, name, modules) -> list:
    """Count the calls of the function ``name`` through every one of
    ``modules`` that holds it."""
    calls = []
    for module in modules:
        original = getattr(module, name, None)
        if original is not None:
            def counted(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_each_job_check_runs_once(tmp_path, capsys, monkeypatch):
    spec_file = write_updown(tmp_path)
    table_file = tmp_path / "table.json"
    full_jobs = _count_calls(monkeypatch, "check_full_job", (cli, invariants, inverse))
    orders = _count_calls(monkeypatch, "check_orders", (cli, inverse))
    argv = ["--mode", "full", "--r-max", "2", "--j-max", "2", "--out", str(table_file)]
    assert main(["forward", str(spec_file), *argv]) == 0
    assert len(full_jobs) == 1 and not orders
    assert main(["invert", str(table_file)]) == 0
    assert len(full_jobs) == 2 and len(orders) == 1
    assert full_jobs[1][2:] == ("entries[].r", "entries[].j", "a FullPrincipal table")


@pytest.mark.parametrize("a", [-2.0, -1.0, 1.0, 2.0])
def test_a_table_at_a_symbol_pole_ends_alike_in_both_modes(tmp_path, capsys, a):
    # the symbol poles of r = 3 (-2 and 2 also of r = 1, 2): both modes skip
    # the same iterates, so they keep the same rows and end alike, in a
    # named obstruction
    spec = parse_spec(json.dumps(dict(UPDOWN, f=UPDOWN["f"][:8])))
    ends = []
    for normalization in ("TopOnly", "FullPrincipal"):
        payload = dict(forward_table(spec, 3, 3, normalization).to_json(), a=a)
        table_file = tmp_path / f"{normalization}.json"
        table_file.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["invert", str(table_file)])
        ends.append((code, capsys.readouterr().err.split(":")[0]))
    assert ends[0] == ends[1]
    assert ends[0][0] == 2 and ends[0][1].startswith("obstruction[")


@pytest.mark.parametrize("normalization", ["TopOnly", "FullPrincipal"])
def test_invert_names_a_j_past_the_table_orders(tmp_path, capsys, normalization):
    spec = parse_spec(json.dumps(UPDOWN))
    payload = forward_table(spec, 3, 3, normalization).to_json()
    table_file = tmp_path / "table.json"
    first = dict(payload, entries=[e for e in payload["entries"] if e["j"] == 1])
    table_file.write_text(json.dumps(first), encoding="utf-8")
    for override in ([], ["--class", "twoarc-symmetric"]):
        assert main(["invert", str(table_file), "--j-max", "3", *override]) == 1
        err = capsys.readouterr().err
        assert "--j-max 3 is out of range" in err and "--j-max <= 1" in err
    assert main(["invert", str(table_file)]) == 0
    gap = dict(payload, entries=[e for e in payload["entries"] if e["j"] != 2])
    table_file.write_text(json.dumps(gap), encoding="utf-8")
    assert main(["invert", str(table_file)]) == 1
    assert "entries[].j 3 is out of range" in capsys.readouterr().err


@pytest.mark.parametrize("override", [[], ["--class", "updown"]])
def test_a_vanishing_h11_ends_in_singular_decoupling(tmp_path, capsys, override):
    # at a = 0, h11 = 0 at every odd r: every row past order 1 of this
    # doubly symmetric table vanishes and reads nothing of f^(4), f^(6)
    spec_file = write_updown(tmp_path, payload={
        "kind": "updown", "L": 2, "f": [1, 0, -0.25, 0, 0.05, 0, -0.033, 0, 0.011]})
    table_file = tmp_path / "table.json"
    assert main(["forward", str(spec_file), "--r-max", "1", "--j-max", "3",
                 "--out", str(table_file)]) == 0
    assert json.loads(table_file.read_text())["class"] == "twoarc-symmetric"
    capsys.readouterr()
    assert main(["invert", str(table_file), *override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("obstruction[singular-decoupling]: the order-2 rows")


def test_invert_class_override_can_fail_loudly(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    table_file = tmp_path / "table.json"
    main(["forward", str(spec_file), "--out", str(table_file)])
    rc = main(["invert", str(table_file), "--class", "twoarc"])
    assert rc == 2
    assert "obstruction[unsupported]" in capsys.readouterr().err


def test_roundtrip_passes_and_fails_by_tolerance(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    assert main(["roundtrip", str(spec_file), "--r-max", "3", "--j-max", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["max_rel_error"] <= 1e-12
    assert main(["roundtrip", str(spec_file), "--r-max", "3", "--j-max", "5",
                 "--tol", "1e-18"]) == 1


def test_roundtrip_dihedral_csv(tmp_path):
    spec_file = write_updown(tmp_path, payload=dihedral_payload())
    out = tmp_path / "report.csv"
    rc = main(["roundtrip", str(spec_file), "--r-max", "2", "--j-max", "4",
               "--out", str(out)])
    assert rc == 0
    header, *rows = out.read_text().splitlines()
    assert header == "order,recovered,expected,rel_error"
    assert len(rows) == 7  # orders 2..8


def test_roundtrip_full_mode(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    rc = main(["roundtrip", str(spec_file), "--r-max", "2", "--j-max", "2",
               "--mode", "full"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


# ---------------------------------------------------------------------------
# verify


def test_verify_selected_suites(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    rc = main(["verify", "poincare", "amplitude", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS poincare: det-poincare r=1" in stdout
    assert "checks passed" in stdout
    header, *rows = out.read_text().splitlines()
    assert header == "suite,check,residual,tolerance,status"
    assert all(row.endswith(",pass") for row in rows)


def test_verify_is_byte_stable(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["verify", "feynman", "--seed", "9", "--out", str(first)])
    main(["verify", "feynman", "--seed", "9", "--out", str(second)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_verify_tolerance_override_forces_failure(capsys):
    rc = main(["verify", "poincare", "--tol", "1e-30"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-0.5e-12"])
def test_bad_tolerances_are_refused_before_any_work(tol, tmp_path, capsys, monkeypatch):
    def forward(*args):
        raise AssertionError("the roundtrip job ran")

    monkeypatch.setattr(cli, "forward_table", forward)
    monkeypatch.setattr(cli, "_SUITES", {})
    spec_file = write_updown(tmp_path)
    for argv in (["roundtrip", str(spec_file), f"--tol={tol}"], ["verify", f"--tol={tol}"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--tol {float(tol)!r} is out of range" in err


def test_zero_and_tiny_tolerances_stay_valid(tmp_path, capsys):
    spec_file = write_updown(tmp_path)
    assert main(["roundtrip", str(spec_file), "--r-max", "2", "--j-max", "2",
                 "--tol", "0"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0
    assert main(["verify", "poincare", "--tol", "0"]) in (0, 1)
    assert "checks passed" in capsys.readouterr().out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 1
    assert "unknown suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dumps


def test_badset_dump(capsys):
    assert main(["badset"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["roots"] == [-2.0, -1.0, 0.0, 2.0]
    assert blob["factorization_residual"] <= 1e-10


def test_graphs_dump_counts_and_cap(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert main(["graphs", "--j-max", "2", "--out", str(out)]) == 0
    catalog = json.loads(out.read_text())
    assert [(row["order"], row["count"]) for row in catalog] == [(1, 5), (2, 41)]
    assert all("symmetry_factor" in g for row in catalog for g in row["graphs"])
    assert main(["graphs", "--j-max", "9"]) == 1
    assert "catalog supports" in capsys.readouterr().err


def test_consecutive_calls_see_their_own_flags(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh
    spec_file, table_file = write_updown(tmp_path), tmp_path / "table.json"
    assert main(["forward", str(spec_file), "--j-max", "3", "--out", str(table_file)]) == 0
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    assert main(["invert", str(table_file), "--class", "twoarc-symmetric", "--j-max", "2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["invert", str(table_file)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["class"] == "twoarc-symmetric" and second["class"] == "updown"
    assert max(map(int, first["report"]["taylor"])) == 4
    assert max(map(int, second["report"]["taylor"])) == 6


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roundtrip", "spec.json", "--tol", "-inf"], "argument --tol: expected one argument"),
        (["forward", "spec.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["tol-minus-inf", "unknown-flag", "no-subcommand"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 is kept for named obstructions
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wavetrace forward")


def test_cli_import_loads_no_scipy():
    # scipy serves only the quadrature oracles and the Chebyshev forms,
    # none of them on the forward or invert path
    code = (
        "import sys, wavetrace.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wavetrace.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
