"""Seeded, bounded fuzzing of the parsers and the command line.

Every input ends one of three ways: a value, a `ValueError` naming what is
wrong (exit 1), or a named obstruction (exit 2); never another exception.
The CLI examples stay at r <= 4 and j <= 3 so that each one is cheap.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from wavetrace.cli import main
from wavetrace.domain import MAX_BOUNCES, DomainSpec, parse_spec
from wavetrace.invariants import InvariantTable, forward_table

FUZZ = settings(max_examples=25, deadline=None, database=None)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
COEFF = st.floats(-3.0, 3.0)
# Floquet or circulant parameters: the exceptional set {-2, -1, 0, 2}, where
# rows vanish, sit at poles or are proportional, and the range around it
FLOQUET = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 2.0]), st.floats(-4.0, 4.0))
# dihedral class labels: junk, m below 2, negative, and m at or just past
# the bounce limit (with r >= 2 its entries pass it too)
DIHEDRAL_CLASS = st.one_of(
    st.text(max_size=3),
    st.sampled_from([0, 1, -1, -3, 2, 3, MAX_BOUNCES, MAX_BOUNCES + 1]),
).map(lambda m: f"dihedral-{m}")


@st.composite
def mutated(draw, payload: dict) -> dict:
    """``payload`` as is, or with one field dropped or replaced by junk."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "drop", "junk"]))
    if how != "keep":
        key = draw(st.sampled_from(sorted(payload)))
        if how == "drop":
            del payload[key]
        else:
            payload[key] = draw(JUNK)
    return payload


@st.composite
def spec_payloads(draw, order=st.integers(2, 8)) -> dict:
    """Spec objects that are mostly valid: the orbit normalization holds
    unless a mutation breaks it.  ``order`` draws the arcs' Taylor order;
    the curvature comes from a Floquet or circulant parameter, in [-4, 4]
    or on the exceptional set (`FLOQUET`)."""
    kind = draw(st.sampled_from(["updown", "twoarc", "dihedral"]))
    L = draw(st.floats(0.05, 5.0))
    a = draw(FLOQUET)
    tail = draw(st.lists(COEFF, min_size=draw(order) - 2, max_size=8))
    if kind == "dihedral":
        m = draw(st.integers(2, 5))
        sin_t = math.sin(math.pi / m)
        even = [0.0 if k % 2 else c for k, c in enumerate(tail, start=3)]
        payload = {"kind": kind, "L": L, "m": m,
                   "f": [L / (m * sin_t), 0.0, (a - 2.0) * m * sin_t / (8.0 * L), *even]}
    else:
        # a = -2 (1 + 2 L c_2) for the upper arc
        payload = {"kind": kind, "L": L, "f": [L / 2.0, 0.0, -(a + 2.0) / (4.0 * L), *tail]}
        if kind == "twoarc":
            lower = draw(st.lists(COEFF, min_size=len(tail) + 1, max_size=len(tail) + 1))
            payload["f_minus"] = [-L / 2.0, 0.0, *lower]
    return draw(mutated(payload))


@st.composite
def table_payloads(draw) -> dict:
    """Table objects that are mostly valid, with one entry per (r, j)."""
    keys = draw(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                        min_size=1, max_size=8))
    entries = [
        draw(mutated({"r": r, "j": j, "re": draw(COEFF), "im": draw(COEFF)}))
        for r, j in sorted(keys)
    ]
    payload = {
        "L": draw(st.floats(0.05, 5.0)),
        "a": draw(FLOQUET),
        "class": draw(st.one_of(
            st.sampled_from(["updown", "twoarc", "twoarc-symmetric"]), DIHEDRAL_CLASS)),
        "normalization": draw(st.sampled_from(["TopOnly", "FullPrincipal", "Other"])),
        "entries": entries,
    }
    return draw(mutated(payload))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


def assert_exit_is_named(code: int, out: str, err: str):
    """Exit 0; exit 1 with an ``error: `` message, or the report of a
    roundtrip past its tolerance; or exit 2 with ``obstruction[``.  Any
    genericity warnings of ``forward`` come first."""
    message = "".join(line for line in err.splitlines(True) if not line.startswith("warning: "))
    if code == 1 and not message:
        assert json.loads(out)["status"] == "fail", out
    elif code == 1:
        assert message.startswith("error: "), err
    elif code == 2:
        assert message.startswith("obstruction["), err
    else:
        assert code == 0, err


@seed(20261018)
@FUZZ
@given(text=st.one_of(st.text(max_size=40), spec_payloads().map(json.dumps)))
def test_parse_spec_returns_a_spec_or_names_the_fault(text):
    try:
        assert isinstance(parse_spec(text), DomainSpec)
    except ValueError as exc:
        assert str(exc)


# a valid table; the examples below replace one string field by a non-string
UPDOWN_TABLE = {"L": 2.0, "a": 3.0, "class": "updown", "normalization": "TopOnly",
                "entries": [{"r": 1, "j": 1, "re": 0.5, "im": 0.0}]}


@seed(20261018)
@FUZZ
@given(data=st.one_of(JUNK, table_payloads()))
@example(data={**UPDOWN_TABLE, "class": None})
@example(data={**UPDOWN_TABLE, "class": True})
@example(data={**UPDOWN_TABLE, "normalization": [1.0]})
def test_table_parser_returns_a_table_or_names_the_fault(data):
    try:
        table = InvariantTable.from_json(data)
    except ValueError as exc:
        assert str(exc)
    else:
        assert isinstance(table, InvariantTable)
        assert (table.symmetry_class, table.normalization) == (data["class"], data["normalization"])
        assert isinstance(table.symmetry_class, str) and isinstance(table.normalization, str)


@st.composite
def cli_runs(draw) -> tuple[dict, list[str]]:
    """A spec object and the size flags of one CLI run; the arcs mostly
    carry the 2 j_max orders that the run reads."""
    # r_max past the dihedral bounce limit at every m >= 2, and past the
    # two-arc range limit, and sizes below 1 are refused before any work
    r_max = draw(st.one_of(st.integers(1, 4), st.sampled_from([0, MAX_BOUNCES // 2 + 1])))
    j_max = draw(st.one_of(st.integers(1, 3), st.just(0)))
    mode = draw(st.sampled_from(["top", "full"]))
    payload = draw(spec_payloads(st.integers(max(2, 2 * j_max - 1), 2 * j_max + 2)))
    return payload, ["--r-max", str(r_max), "--j-max", str(j_max), "--mode", mode]


# a triangle table (m = 3, L = 3, s = 3.9), run below at r_max just past the
# bounce limit
SIN_3 = math.sin(math.pi / 3)
DIHEDRAL_SPEC = {"kind": "dihedral", "L": 3.0, "m": 3,
                 "f": [1.0 / SIN_3, 0.0, (3.9 - 2.0) * 3 * SIN_3 / 24.0]}


# a doubly symmetric spec at a = 0, where h11 = 0 at r = 1 (and r = 2 is
# resonant): every row past order 1 vanishes
FLAT_SPEC = {"kind": "updown", "L": 2.0, "f": [1.0, 0.0, -0.25, 0.0, 0.05, 0.0, -0.033]}


@seed(20261018)
@settings(FUZZ, max_examples=30)
@given(run=cli_runs())
@example(run=(DIHEDRAL_SPEC, ["--r-max", str(MAX_BOUNCES // 3 + 1), "--j-max", "1",
                              "--mode", "top"]))
@example(run=(FLAT_SPEC, ["--r-max", "1", "--j-max", "3", "--mode", "top"]))
def test_cli_exits_with_a_code_on_any_spec(run):
    payload, sizes = run
    with tempfile.TemporaryDirectory() as tmp:
        spec_file = Path(tmp) / "spec.json"
        spec_file.write_text(json.dumps(payload), encoding="utf-8")
        table_file = Path(tmp) / "table.json"
        runs = [run_cli(["forward", str(spec_file), *sizes, "--out", str(table_file)])]
        if runs[0][0] == 0:
            runs.append(run_cli(["invert", str(table_file)]))
        runs.append(run_cli(["roundtrip", str(spec_file), *sizes]))
    for code, out, err in runs:
        assert_exit_is_named(code, out, err)


# a small dihedral table, read under m = 1 (rejected) and m = 2 (the
# smallest polygon orbit): the class branches that the sampled tables
# seldom reach at this budget
DIHEDRAL_TABLE = {"L": 3.0, "a": 3.9, "normalization": "TopOnly", "entries": [
    {"r": 1, "j": 1, "re": 0.5, "im": 0.0}, {"r": 1, "j": 2, "re": 0.1, "im": 0.0}]}


@seed(20261018)
@FUZZ
@given(payload=table_payloads(), j_max=st.one_of(st.none(), st.integers(0, 3)))
@example(payload={**DIHEDRAL_TABLE, "class": "dihedral-1"}, j_max=None)
@example(payload={**DIHEDRAL_TABLE, "class": "dihedral-2"}, j_max=None)
@example(payload={**DIHEDRAL_TABLE, "class": "dihedral-x"}, j_max=None)
@example(payload={**DIHEDRAL_TABLE, "class": "dihedral--2"}, j_max=None)
@example(payload={**DIHEDRAL_TABLE, "class": f"dihedral-{MAX_BOUNCES + 1}"}, j_max=None)
@example(payload={**DIHEDRAL_TABLE, "class": f"dihedral-{MAX_BOUNCES}"}, j_max=None)
def test_cli_invert_exits_with_a_code_on_any_table(payload, j_max):
    with tempfile.TemporaryDirectory() as tmp:
        table_file = Path(tmp) / "table.json"
        table_file.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["invert", str(table_file)]
        if j_max is not None:
            argv += ["--j-max", str(j_max)]
        assert_exit_is_named(*run_cli(argv))


@st.composite
def pole_and_gap_tables(draw) -> tuple[list[dict], list[str]]:
    """The TopOnly and FullPrincipal tables of one hyperbolic `updown` spec
    (r <= 4, j <= 3), each with its `a` moved to the same symbol pole
    -2 cos(pi k / r) of one iterate or with the same whole orders dropped,
    and the flags of their `invert` runs."""
    r_max, j_max = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.5, 4.0))
    tail = draw(st.lists(COEFF, min_size=2 * j_max - 2, max_size=2 * j_max - 2))
    spec = parse_spec(json.dumps(
        {"kind": "updown", "L": 2.0, "f": [1.0, 0.0, -(a + 2.0) / 8.0, *tail]}))
    payloads = [forward_table(spec, r_max, j_max, n).to_json()
                for n in ("TopOnly", "FullPrincipal")]
    if draw(st.booleans()):
        r = draw(st.integers(1, r_max))
        pole = -2.0 * math.cos(math.pi * draw(st.integers(0, 2 * r - 1)) / r)
        payloads = [dict(p, a=pole) for p in payloads]
    else:
        kept = draw(st.sets(st.integers(1, j_max), min_size=1, max_size=j_max))
        payloads = [dict(p, entries=[e for e in p["entries"] if e["j"] in kept])
                    for p in payloads]
    flags = draw(st.sampled_from([[], ["--class", "twoarc-symmetric"]]))
    j_flag = draw(st.one_of(st.none(), st.integers(1, j_max + 1)))
    return payloads, flags + ([] if j_flag is None else ["--j-max", str(j_flag)])


@seed(20261018)
@settings(FUZZ, max_examples=30)
@given(run=pole_and_gap_tables())
def test_invert_names_a_pole_or_a_missing_order(run):
    # exit 1 names the order flag or field, exit 2 a named obstruction
    payloads, flags = run
    names = ("singular-decoupling", "symbol-pole", "vanishing-cubic")
    with tempfile.TemporaryDirectory() as tmp:
        table_file = Path(tmp) / "table.json"
        for payload in payloads:
            table_file.write_text(json.dumps(payload), encoding="utf-8")
            code, _, err = run_cli(["invert", str(table_file), *flags])
            if code == 1:
                assert err.startswith("error: "), err
                assert "--j-max" in err or "entries[].j" in err, err
            elif code == 2:
                assert any(err.startswith(f"obstruction[{n}]") for n in names), err
            else:
                assert code == 0, err
