"""Workloads of the round-trip benchmark: seeded spec draws, the expected
recovery and the per-item checks.

Nothing here imports wavetrace: the expected values are computed from the
drawn coefficients alone, so a fault in the program cannot hide in them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Half-length of every drawn orbit; the spec format then fixes c_0 = L/2.
L = 2.0

# The default tolerance of `wavetrace roundtrip`: |got - want| / max(|want|, 1).
TOL = 1e-8

# Coefficients c_k = f^(k)(0)/k! for k >= 4 are drawn from [-0.3, 0.3]; the
# cubic from +-[0.05, 0.3], which keeps |f'''(0)| >= 0.3 and so clear of the
# `vanishing-cubic` obstruction.
COEFF_BOUND = 0.3
CUBIC_RANGE = (0.05, 0.3)

# Floquet parameter a = -2 (1 + 2 L c_2) of the seeded draws, from |a| in
# [2.5, 4]: hyperbolic tables have no resonant iterate at any r and sit
# clear of the exceptional set {-2, -1, 0, 2}.  Elliptic tables (|a| < 2)
# miss the 1e-8 tolerance whenever a falls near a resonance
# a = -2 cos(pi k / r), which a seeded draw does on some seeds only; such an
# operation could not be told apart from a regression.  The elliptic class
# is therefore carried by fixed items that every round runs, whatever the
# seed: one that recovers within the tolerance and, per workload, one that
# shows a known recovery-accuracy fault.
A_RANGE = (2.5, 4.0)

# c_3 .. c_10 of the fixed items; a workload of order 2 j_max takes c_3 ..
# c_{2 j_max}.
_FIXED_TAIL = [0.203, 0.031, -0.136, 0.231, -0.157, -0.037, -0.293, -0.078]


def _fixed_spec(c2: float, order: int) -> dict:
    return {"kind": "updown", "L": L, "f": [L / 2.0, 0.0, c2, *_FIXED_TAIL[:order - 2]]}


@dataclass(frozen=True)
class Item:
    """One spec of the item list.

    `fault_ceiling` marks a known-fault item: its recovery misses TOL today
    and it counts in `failed`, but an error above the ceiling, or any other
    failure, is a regression and makes the run incorrect.
    """

    label: str
    spec: dict
    fault_ceiling: float | None = None


@dataclass(frozen=True)
class Workload:
    """One forward -> invert shape: every item has these sizes."""

    name: str
    mode: str
    r_max: int
    j_max: int
    seeded_items: int
    fixed_items: tuple[Item, ...] = ()

    @property
    def order(self) -> int:
        """Taylor order of the drawn data: invert recovers f^(k), k <= 2 j_max."""
        return 2 * self.j_max

    def forward_args(self) -> list[str]:
        return ["--mode", self.mode, "--r-max", str(self.r_max),
                "--j-max", str(self.j_max)]


# Elliptic, a = 0.5: recovers to 2e-10 in top mode (r <= 100, j <= 5) and
# to 6e-13 in full mode (r <= 3, j <= 4).
ELLIPTIC_C2 = -0.3125

# The recovery-accuracy faults, one elliptic table per workload.
#  top-wide, a = 1.024: `invert` weights every iterate alike, the
#    near-resonant iterate r = 76 dominates the order-5 solve, and f^(10)(0)
#    comes back with relative error 3.75e-8 (with one BLAS thread).
#  full-deep, a = -1.725 (near -2 cos(pi/6)): the full-mode recovery leaves
#    relative error 5.8e-7 in f^(7)(0) and f^(8)(0).
# Each ceiling is about 2.5 times today's error.
TOP_FAULT = Item("fault-a1.024", _fixed_spec(-0.378, 10), fault_ceiling=1e-7)
FULL_FAULT = Item("fault-a-1.725", _fixed_spec(-0.034375, 8), fault_ceiling=1.5e-6)


# A third shape, full mode at r <= 5, j <= 3 (10-variable jets, 2.3 GB jet
# index), is left out: with three workloads the run budget gave full-deep
# too few items per run for steady medians on a shared host.  Its jet shape
# is still timed by the v10d6 probes of a traced run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("top-wide", "top", 100, 5, 2,
                 (Item("elliptic-a0.5", _fixed_spec(ELLIPTIC_C2, 10)), TOP_FAULT)),
        Workload("full-deep", "full", 3, 4, 2,
                 (Item("elliptic-a0.5", _fixed_spec(ELLIPTIC_C2, 8)), FULL_FAULT)),
    )
}


def draw_spec(rng: random.Random, workload: Workload, slot: int) -> dict:
    """One `updown` spec with Taylor data to order 2 j_max.

    Forward time depends on a (the SVD behind the condition number of the
    top-mode Hessian converges faster for a < 0), so each item slot draws
    a from its own stratum: the sign alternates and |a| falls in the
    slot-th of `seeded_items` equal parts of the range.  Every seed then
    gives a list with the same mix of cheap and dear items.
    """
    lo, hi = A_RANGE
    width = (hi - lo) / workload.seeded_items
    a = (1.0 if slot % 2 == 0 else -1.0) * (lo + width * (slot + rng.random()))
    c2 = -(a + 2.0) / (4.0 * L)
    c3 = rng.choice((-1.0, 1.0)) * rng.uniform(*CUBIC_RANGE)
    rest = [rng.uniform(-COEFF_BOUND, COEFF_BOUND) for _ in range(4, workload.order + 1)]
    return {"kind": "updown", "L": L, "f": [L / 2.0, 0.0, c2, c3] + rest}


def make_items(workload: Workload, seed: int) -> list[Item]:
    """The fixed item list of one run: the same seed gives the same list."""
    rng = random.Random(f"{workload.name}:{seed}")
    items = [
        Item(f"seed{seed}-{i}", draw_spec(rng, workload, i))
        for i in range(workload.seeded_items)
    ]
    return items + list(workload.fixed_items)


def expected_taylor(coeffs: list[float], k_max: int) -> dict[int, float]:
    """f^(k)(0), k = 2..k_max, in the convex-representative convention.

    The top arc is negated (it curves toward the orbit), then reflected
    x -> -x when that makes f'''(0) >= 0: a table cannot tell a domain
    from its mirror image.
    """
    data = {k: -coeffs[k] * math.factorial(k) for k in range(2, k_max + 1)}
    if data[3] < 0.0:
        data = {k: (-1.0) ** k * v for k, v in data.items()}
    return data


def check_table(table: dict, r_max: int, j_max: int) -> list[str]:
    """Failures of a forward table: every (r, j) present once, values finite."""
    failures = []
    seen: dict[tuple[int, int], int] = {}
    for entry in table.get("entries", []):
        key = (entry["r"], entry["j"])
        seen[key] = seen.get(key, 0) + 1
        if not (math.isfinite(entry["re"]) and math.isfinite(entry["im"])):
            failures.append(f"entry {key} is not finite")
    want = {(r, j) for r in range(1, r_max + 1) for j in range(1, j_max + 1)}
    missing = sorted(want - set(seen))
    extra = sorted(set(seen) - want)
    repeated = sorted(k for k, n in seen.items() if n > 1)
    if missing:
        failures.append(f"table misses {len(missing)} entries, first {missing[0]}")
    if extra:
        failures.append(f"table has {len(extra)} unexpected entries, first {extra[0]}")
    if repeated:
        failures.append(f"table repeats {repeated[0]}")
    return failures


def recovery_error(recovered: dict[int, float], expected: dict[int, float]) -> float:
    """Worst |got - want| / max(|want|, 1); a missing order counts as inf."""
    worst = 0.0
    for k, want in expected.items():
        got = recovered.get(k)
        if got is None or not math.isfinite(got):
            return math.inf
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return worst


def check_recovery(recovered: dict[int, float], expected: dict[int, float],
                   tol: float = TOL) -> list[str]:
    err = recovery_error(recovered, expected)
    if err <= tol:
        return []
    return [f"recovery error {err:.3g} exceeds {tol:g}"]
