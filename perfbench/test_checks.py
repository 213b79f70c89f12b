"""The benchmark's own checks must reject a wrong recovery and a short table."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from roundtrip import ItemResult, is_expected_failure  # noqa: E402
from workloads import (  # noqa: E402
    FULL_FAULT,
    TOP_FAULT,
    WORKLOADS,
    Item,
    check_recovery,
    check_table,
    expected_taylor,
    make_items,
)


def _table(r_max, j_max):
    return {
        "entries": [
            {"r": r, "j": j, "re": 0.1 * r, "im": -0.2 * j}
            for r in range(1, r_max + 1)
            for j in range(1, j_max + 1)
        ]
    }


def test_expected_taylor_negates_and_reflects():
    # f = 1 + 0.1 x^2 + 0.2 x^3 + 0.05 x^4: negating makes f''' < 0,
    # so the representative is reflected and odd orders flip back.
    got = expected_taylor([1.0, 0.0, 0.1, 0.2, 0.05], 4)
    assert got == {2: -0.2, 3: 0.2 * 6, 4: -0.05 * 24}
    # a negative cubic stays negated and unreflected
    got = expected_taylor([1.0, 0.0, 0.1, -0.2, 0.05], 4)
    assert got == {2: -0.2, 3: 0.2 * 6, 4: -0.05 * 24}


def test_recovery_check_rejects_a_perturbed_datum():
    want = expected_taylor(TOP_FAULT.spec["f"], 10)
    assert check_recovery(dict(want), want) == []
    for k in want:
        bad = dict(want)
        bad[k] = want[k] * (1.0 + 1e-6)
        assert check_recovery(bad, want), f"perturbed f^({k}) passed"


def test_recovery_check_rejects_a_missing_or_nan_order():
    want = expected_taylor(TOP_FAULT.spec["f"], 10)
    short = {k: v for k, v in want.items() if k != 10}
    assert check_recovery(short, want)
    assert check_recovery({**want, 7: math.nan}, want)


def test_table_check_rejects_a_missing_entry():
    assert check_table(_table(5, 3), 5, 3) == []
    for drop in range(15):
        table = _table(5, 3)
        del table["entries"][drop]
        assert check_table(table, 5, 3), f"table without entry {drop} passed"


def test_table_check_rejects_nonfinite_and_extra_entries():
    table = _table(3, 4)
    table["entries"][5]["im"] = math.inf
    assert check_table(table, 3, 4)
    assert check_table(_table(3, 4), 3, 3)


def test_items_repeat_per_seed_and_share_sizes():
    for workload in WORKLOADS.values():
        first = make_items(workload, 7)
        assert first == make_items(workload, 7)
        assert first != make_items(workload, 8)
        assert {len(item.spec["f"]) for item in first} == {workload.order + 1}
        assert first[-len(workload.fixed_items):] == list(workload.fixed_items)


def _failed(err):
    return ItemResult(1.0, 0.1, [f"recovery error {err:.3g} exceeds 1e-08"], err)


def test_known_fault_is_expected_only_up_to_its_ceiling():
    for fault in (TOP_FAULT, FULL_FAULT):
        assert is_expected_failure(fault, _failed(fault.fault_ceiling / 2.5))
        assert not is_expected_failure(fault, _failed(fault.fault_ceiling * 1.01))
        assert not is_expected_failure(fault, _failed(1e-2))
        assert not is_expected_failure(fault, _failed(math.inf))
    # any other failure on a known-fault item is a regression
    table_short = _failed(4e-8)
    table_short.failures.append("table misses 1 entries, first (7, 2)")
    assert not is_expected_failure(TOP_FAULT, table_short)
    assert not is_expected_failure(TOP_FAULT, ItemResult(1.0, 0.0, ["forward exited 1"]))
    # an item without a ceiling has no expected failure
    plain = Item("plain", TOP_FAULT.spec)
    assert not is_expected_failure(plain, _failed(2e-8))
