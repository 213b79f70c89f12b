"""Boundary recovery from invariant tables.

The forward map tabulates orbit invariants; this module runs the
induction the other way.  From a table plus the orbit length datum L and
the Floquet datum, it recovers Taylor data of the boundary in the three
symmetry classes: mirror-symmetric (decoupling two graph families per
order), doubly symmetric (even data read off a single family), and
dihedral (one diagonal entry per order).

Recovered two-arc data follow the convex-representative convention: the
reported f is the arc curving toward the orbit, so f''(0) > 0 for
elliptic tables, and the representative with f'''(0) >= 0 is returned
(the table cannot tell a domain from its mirror image).  Dihedral data
are reported in the chart convention of the forward map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import BoundaryArc, DomainSpec, ObstructionError
from .feynman import _i_power
from .hessian import CirculantHessian, dihedral_inverse_entry, parity_sums
from .invariants import (
    InvariantTable,
    check_full_job,
    contributing_weights,
    invariant_full,
    principal_leading_value,
)

# relative conditioning floor below which a decoupling system is treated
# as singular (exactly-bad Floquet parameters produce proportional rows)
_SING_TOL = 1e-8

# |f'''(0)| below this (times the data scale) cannot anchor the odd data;
# the floor sits above the sqrt-amplified least-squares noise (~1e-7)
_CUBIC_TOL = 1e-6


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered boundary data.

    Attributes:
        taylor: k -> f^(k)(0) for k = 2..2J.  Odd entries are zero for
            the doubly symmetric and dihedral classes.
        residuals: j -> normalized least-squares residual of that order's
            solve (includes any imaginary leakage of the table values).
        obstructions: non-fatal notes, e.g. iterates skipped at symbol
            poles.  Fatal problems raise ObstructionError instead.
        cancellation: j -> largest cancellation ratio
            max(|entry|, |remainder|) / |entry - remainder| over the rows
            of that order's decoupling solve, for FullPrincipal tables of
            the mirror-symmetric class (empty otherwise).
    """

    taylor: dict[int, float]
    residuals: dict[int, float]
    obstructions: tuple[str, ...] = ()
    cancellation: dict[int, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "taylor": {str(k): v for k, v in sorted(self.taylor.items())},
            "residuals": {str(j): v for j, v in sorted(self.residuals.items())},
            "obstructions": list(self.obstructions),
        }


def recover_f2(a: float, L: float) -> float:
    """Second derivative of the convex representative from the Floquet
    datum: f''(0) = (a + 2) / (2L).

    Elliptic tables (|a| < 2) give 0 < f''(0) < 2/L; the formula
    continues through the hyperbolic range.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    return (a + 2.0) / (2.0 * L)


def convex_representative(spec: DomainSpec, k_max: int) -> dict[int, float]:
    """Boundary data of a mirror-symmetric spec in recovery convention.

    Negates the top arc (the convex representative curves toward the
    orbit) and reflects x -> -x if needed so the cubic term is >= 0.
    This is what a recovery run on the domain's forward table returns.
    """
    if spec.kind == "dihedral":
        raise ValueError("convex_representative applies to two-arc specs")
    data = {k: -spec.f.derivative(k) for k in range(2, k_max + 1)}
    if k_max >= 3 and data[3] < 0.0:
        data = {k: (-1.0) ** k * v for k, v in data.items()}
    return data


# ---------------------------------------------------------------------------
# shared row machinery


def _iterate_data(
    table: InvariantTable, J: int, a: float, L: float, m: int | None = None
) -> tuple[dict[int, tuple[float, ...]], list[str]]:
    """Inverse-Hessian data of every iterate that orders j <= J read.

    Returns r -> (h11, F3, A_r) for the admissible iterates of the
    two-arc classes (m None, from `parity_sums` and
    `principal_leading_value`), r -> (h11,) for those of the m-gon orbit,
    and one note per iterate skipped at a symbol pole.  The data depend on
    r, a and L only, so each iterate is inverted once for all orders.
    """
    data: dict[int, tuple[float, ...]] = {}
    notes = []
    for r in sorted({r for (r, j) in table.entries if j <= J}):
        try:
            if m is None:
                diagonal, _, s3 = parity_sums(CirculantHessian(r=r, L=L, a=a, b=a))
                data[r] = (
                    float(diagonal[0]),
                    float(s3[0].sum()),
                    principal_leading_value(r, L),
                )
            else:
                data[r] = (dihedral_inverse_entry(m, r, a, 2.0 * L / m, 1, 1),)
        except ObstructionError:
            notes.append(f"iterate r = {r} skipped: symbol pole at a = {a:g}")
    return data, notes


def _decouple(
    j: int,
    values: dict[int, complex],
    scales: dict[int, float] | None,
    iterates: dict,
    a: float,
) -> tuple[float, float, float, float | None]:
    """(A, B, residual, cancellation) of the order-j decoupling.

    Separates the order-j table row into its two graph-family sums.  The
    raw entry at (r, j) is divided by 8 r i^(j+1) A_r (h11)^(j-2), with
    A_r the leading principal amplitude, leaving the real linear form

        (h11_2r)^2 * A - F3(r, a) * B = y_r

    for A = -w1 f^(2j) + 2 w2 L/(a+2) f''' f^(2j-1) and
    B = 2 w3 f''' f^(2j-1), in the convex-representative data,
    in least squares over the admissible iterates (`_iterate_data`).

    With ``scales`` (FullPrincipal tables, see `_order_values`) each row
    is weighted by |divisor| / scale, the inverse of its rounding level:
    where entry and remainder nearly cancel, y_r keeps the rounding of the
    larger of the two (weighted least squares; Bjorck, *Numerical Methods
    for Least Squares Problems*, 1996, ch. 4).  The cancellation returned
    is the largest scale / |y_r| over the rows, None without scales.
    TopOnly rows keep unit weight.  The singularity test and the residual
    read the unweighted rows.

    Raises:
        ObstructionError("singular-decoupling"): fewer than two admissible
            iterates, or the system is rank-deficient — the hallmark of
            the finitely many bad Floquet parameters.
    """
    rows = sorted(iterates.keys() & values)
    coeffs, rhs, weights = [], [], []
    for r in rows:
        h11, f3, lead = iterates[r]
        coeffs.append((h11**2, -f3))
        divisor = 8.0 * r * _i_power(j + 1) * lead * h11 ** (j - 2)
        rhs.append(complex(values[r]) / divisor)
        if scales is not None:
            weights.append(abs(divisor) / scales[r])
    if len(coeffs) < 2:
        raise ObstructionError(
            "singular-decoupling",
            f"need two admissible iterates to separate order {j}, "
            f"have {len(coeffs)} at a = {a:g}",
        )
    matrix = np.array(coeffs)
    smin, smax = np.linalg.svd(matrix, compute_uv=False)[[-1, 0]]
    if smin <= _SING_TOL * smax:
        raise ObstructionError(
            "singular-decoupling",
            "decoupling rows are proportional "
            "(effectively bad Floquet parameter)",
        )
    rhs = np.array(rhs)
    system, target, cancellation = matrix, rhs, None
    if scales is not None:
        w = np.array(weights)
        system, target = matrix * w[:, None], rhs * w
        cancellation = max(
            scales[r] / abs(values[r]) if values[r] else math.inf for r in rows
        )
    sol_c, *_ = np.linalg.lstsq(system.astype(complex), target, rcond=None)
    sol = sol_c.real
    resid = float(
        np.linalg.norm(matrix @ sol - rhs) / max(np.linalg.norm(rhs), 1.0)
    )
    return float(sol[0]), float(sol[1]), resid, cancellation


def _solve_single(coeffs, rhs, j: int, a: float) -> tuple[float, float]:
    """Least-squares (value, residual) of coeff * x = y over the admissible
    iterates of order j, for the single-family classes.

    Raises:
        ObstructionError("symbol-pole"): no admissible iterate.
    """
    if not coeffs:
        raise ObstructionError(
            "symbol-pole",
            f"every iterate of order {j} hits a symbol pole at a = {a:g}",
        )
    matrix = np.array(coeffs, dtype=complex).reshape(-1, 1)
    sol_c, *_ = np.linalg.lstsq(matrix, np.array(rhs), rcond=None)
    value = float(sol_c[0].real)
    resid = float(
        np.linalg.norm(matrix * value - np.array(rhs).reshape(-1, 1))
        / max(np.linalg.norm(rhs), 1.0)
    )
    return value, resid


def _zero_beyond_quadratic(table: InvariantTable) -> bool:
    scale = max([abs(v) for (_, j), v in table.entries.items() if j == 1] + [1.0])
    return all(
        abs(v) <= 1e-13 * scale for (_, j), v in table.entries.items() if j >= 2
    )


def _first_order_residual(
    table: InvariantTable, iterates: dict, d2: float, m: int | None
) -> float | None:
    """Consistency of the j = 1 entries with the Floquet-datum base case,
    over the admissible iterates of `_iterate_data`."""
    checks = []
    for r in sorted(iterates.keys() & {r for (r, j) in table.entries if j == 1}):
        h11 = iterates[r][0]
        if m is None:
            coef = 4.0 * r * iterates[r][2] * h11
        else:
            coef = m * r * h11
        checks.append(abs(table.entry(r, 1) - coef * d2) / max(abs(coef * d2), 1.0))
    return max(checks) if checks else None


def _remainder(
    table: InvariantTable, L: float, data: dict[int, float], r: int, j: int
) -> complex:
    """FullPrincipal remainder: the (r, j) value of an auxiliary domain
    carrying the already-recovered data and zeros at orders 2j-1, 2j."""
    taylor = [L / 2.0, 0.0]
    taylor += [-data.get(k, 0.0) / math.factorial(k) for k in range(2, 2 * j + 1)]
    aux = DomainSpec("updown", L, BoundaryArc(tuple(taylor)))
    return invariant_full(aux, r, j)


def _order_values(
    table: InvariantTable, L: float, data: dict[int, float], j: int
) -> tuple[dict[int, complex], dict[int, float] | None]:
    """The order-j top parts y_r = entry - remainder by iterate, and for
    FullPrincipal tables each one's scale max(|entry|, |remainder|), the
    level its rounding is relative to.  TopOnly tables subtract no
    remainder and get no scales."""
    rows = [r for (r, jj) in table.entries if jj == j]
    if table.normalization == "TopOnly":
        return {r: table.entry(r, j) for r in rows}, None
    values, scales = {}, {}
    for r in rows:
        entry = table.entry(r, j)
        remainder = _remainder(table, L, data, r, j)
        values[r] = entry - remainder
        scales[r] = max(abs(entry), abs(remainder))
    return values, scales


# ---------------------------------------------------------------------------
# the three recovery pipelines


def recover_symmetric(
    table: InvariantTable, L: float, a: float, J: int
) -> RecoveryResult:
    """Recover f^(k)(0), k <= 2J, of a mirror-symmetric boundary.

    Induction on j: the base case reads f''(0) off the Floquet datum;
    each order j >= 2 decouples the two graph families, divides the odd
    family by f'''(0), and solves for the even datum.  Order j never
    reads table entries beyond j.

    An all-zero table (flat beyond the quadratic) short-circuits to
    zeros.  Otherwise a cubic below tolerance stops the induction the
    first time an odd datum actually requires it (j = 3), so J = 2 still
    returns the quartic datum of a doubly symmetric table.

    Raises:
        ObstructionError("singular-decoupling"): bad Floquet parameter.
        ObstructionError("vanishing-cubic"): |f'''(0)| below tolerance —
            the odd data are not anchored and the quintic-sum extension
            is not implemented.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    data = {2: recover_f2(a, L)}
    residuals: dict[int, float] = {}
    iterates, notes = _iterate_data(table, J, a, L)
    first = _first_order_residual(table, iterates, data[2], None)
    if first is not None:
        residuals[1] = first

    if J >= 2 and _zero_beyond_quadratic(table):
        for k in range(3, 2 * J + 1):
            data[k] = 0.0
        for j in range(2, J + 1):
            residuals[j] = 0.0
        return RecoveryResult(data, residuals, tuple(notes))

    cancellation: dict[int, float] = {}
    cubic_floor = _CUBIC_TOL
    for j in range(2, J + 1):
        w1, w2, w3 = contributing_weights(j)
        values, scales = _order_values(table, L, data, j)
        A, B, residuals[j], ratio = _decouple(j, values, scales, iterates, a)
        if ratio is not None:
            cancellation[j] = ratio
        odd_product = B / (2.0 * w3)  # = f'''(0) f^(2j-1)(0)
        if j == 2:
            scale = max(1.0, abs(A / w1)) ** 0.5
            cubic_floor = _CUBIC_TOL * scale
            if odd_product < -(cubic_floor**2):
                raise ObstructionError(
                    "vanishing-cubic",
                    f"odd family gives (f'''(0))^2 = {odd_product:g} < 0; "
                    "table is inconsistent with a mirror-symmetric domain",
                )
            data[3] = math.sqrt(max(odd_product, 0.0))
        else:
            if data[3] <= cubic_floor:
                raise ObstructionError(
                    "vanishing-cubic",
                    "f'''(0) vanishes to tolerance; the odd data are not "
                    "anchored and the quintic-sum extension of the "
                    "induction is not implemented",
                )
            data[2 * j - 1] = odd_product / data[3]
        data[2 * j] = -(A - 2.0 * w2 * (L / (a + 2.0)) * odd_product) / w1
    return RecoveryResult(data, residuals, tuple(notes), cancellation)


def recover_two_symmetry(
    table: InvariantTable, L: float, a: float, J: int
) -> RecoveryResult:
    """Recover the even data of a doubly symmetric boundary.

    Odd coefficients are zero by symmetry; each even datum is read off
    the single-family coefficient -8 r i^(j+1) A_r w1 (h11)^j, so no
    decoupling is needed and the bad set only matters through outright
    symbol poles.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    data = {2: recover_f2(a, L)}
    residuals: dict[int, float] = {}
    iterates, notes = _iterate_data(table, J, a, L)
    first = _first_order_residual(table, iterates, data[2], None)
    if first is not None:
        residuals[1] = first
    for j in range(2, J + 1):
        data[2 * j - 1] = 0.0
        w1 = contributing_weights(j)[0]
        values, _ = _order_values(table, L, data, j)
        coeffs, rhs = [], []
        for r in sorted(iterates.keys() & values):
            h11, _, lead = iterates[r]
            coeffs.append(-8.0 * r * _i_power(j + 1) * lead * w1 * h11**j)
            rhs.append(complex(values[r]))
        data[2 * j], residuals[j] = _solve_single(coeffs, rhs, j, a)
    return RecoveryResult(data, residuals, tuple(notes))


def recover_dihedral(
    table: InvariantTable, m: int, L: float, a: float, J: int
) -> RecoveryResult:
    """Recover the even data of an m-fold dihedral boundary.

    The datum a is the circulant diagonal parameter of the polygon
    orbit; f''(0) = (a - 2) m sin(pi/m) / (4L), and each even datum is
    the table entry divided by m r (h11)^j.  A single iterate suffices.

    Raises:
        ObstructionError("unsupported"): non-TopOnly dihedral tables
            (the forward route does not produce them).
        ObstructionError("symbol-pole"): every iterate degenerate.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if J < 1:
        raise ValueError("J must be >= 1")
    if table.normalization != "TopOnly":
        raise ObstructionError(
            "unsupported", "dihedral recovery expects a TopOnly table"
        )
    sin_t = math.sin(math.pi / m)
    data = {2: (a - 2.0) * m * sin_t / (4.0 * L)}
    residuals: dict[int, float] = {}
    iterates, notes = _iterate_data(table, J, a, L, m)
    first = _first_order_residual(table, iterates, data[2], m)
    if first is not None:
        residuals[1] = first
    for j in range(2, J + 1):
        data[2 * j - 1] = 0.0
        coeffs, rhs = [], []
        for r in sorted(iterates.keys() & {r for (r, jj) in table.entries if jj == j}):
            h11 = iterates[r][0]
            coeffs.append(m * r * h11**j)
            rhs.append(complex(table.entry(r, j)))
        data[2 * j], residuals[j] = _solve_single(coeffs, rhs, j, a)
    return RecoveryResult(data, residuals, tuple(notes))


def recover(table: InvariantTable, J: int) -> RecoveryResult:
    """Dispatch on the table's symmetry class, using its own metadata.

    Raises:
        ValueError: a FullPrincipal table whose remainders at orders <= J
            would pass the graph census or `MAX_FULL_COST`, before any of
            them is computed (`invariants.check_full_job`).
    """
    if table.normalization == "FullPrincipal":
        r_max = max(r for r, _ in table.entries)
        check_full_job(r_max, J, "entries[].r", "J", "a FullPrincipal table")
    cls = table.symmetry_class
    L, a = table.length, table.floquet_parameter
    if cls.startswith("dihedral-"):
        return recover_dihedral(table, int(cls.split("-", 1)[1]), L, a, J)
    if cls == "twoarc-symmetric":
        return recover_two_symmetry(table, L, a, J)
    if cls == "updown":
        return recover_symmetric(table, L, a, J)
    raise ObstructionError(
        "unsupported",
        f"no recovery pipeline for symmetry class {cls!r} "
        "(generic two-arc tables are underdetermined)",
    )
