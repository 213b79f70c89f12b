"""Boundary recovery from invariant tables.

The forward map tabulates orbit invariants; `recover` runs the induction
the other way, from a table and its orbit length L and Floquet datum.  The
base case reads f''(0) off the Floquet datum; each later order reads its
data off its table row, decoupling two graph families (mirror-symmetric
class) or reading one (doubly symmetric and dihedral classes).

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

from .domain import BoundaryArc, DomainSpec, ObstructionError, check_bounces
from .feynman import _i_power
from .hessian import dihedral_inverse_entry, stacked_parity_sums
from .invariants import (
    InvariantTable,
    check_full_job,
    check_size,
    contributing_weights,
    dihedral_m,
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


def recovered_spec(
    symmetry_class: str, L: float, data: dict[int, float], order: int
) -> DomainSpec:
    """Spec of degree ``order`` carrying recovered data, missing orders 0.

    Two-arc data are in the convex-representative convention (negated
    top arc) and give an "updown" spec; dihedral data are already in the
    chart convention.  Its forward table reproduces the recovery.
    """
    m = dihedral_m(symmetry_class, "class")
    if m is not None:
        taylor = [L / (m * math.sin(math.pi / m)), 0.0]
        taylor += [data.get(k, 0.0) / math.factorial(k) for k in range(2, order + 1)]
        return DomainSpec("dihedral", L, BoundaryArc(tuple(taylor)), m=m)
    taylor = [L / 2.0, 0.0]
    taylor += [-data.get(k, 0.0) / math.factorial(k) for k in range(2, order + 1)]
    return DomainSpec("updown", L, BoundaryArc(tuple(taylor)))


# ---------------------------------------------------------------------------
# shared row machinery


def _iterate_data(
    table: InvariantTable, J: int, a: float, L: float, m: int | None = None
) -> tuple[dict[int, tuple[float, ...]], list[str]]:
    """Inverse-Hessian data of every iterate that orders j <= J read.

    Returns r -> (h11, F3, A_r) for the admissible iterates of the
    two-arc classes (m None, from one `stacked_parity_sums` pass and
    `principal_leading_value`), r -> (h11,) for those of the m-gon orbit,
    and one note per iterate skipped at a symbol pole.  The data depend on
    r, a and L only, so each iterate is inverted once for all orders.
    """
    rs = sorted({r for (r, j) in table.entries if j <= J})
    if m is None:
        (diagonal, _, s3), poles = stacked_parity_sums(L, a, a, rs)
        admitted = [r for r in rs if r not in poles]
        data = {
            r: (float(diagonal[i, 0]), float(s3[i, 0].sum()), principal_leading_value(r, L))
            for i, r in enumerate(admitted)
        }
    else:
        data, poles = {}, []
        for r in rs:
            try:
                data[r] = (dihedral_inverse_entry(m, r, a, 2.0 * L / m, 1, 1),)
            except ObstructionError:
                poles.append(r)
    return data, [f"iterate r = {r} skipped: symbol pole at a = {a:g}" for r in poles]


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


def check_orders(table: InvariantTable, J: int, name: str):
    """Refuse a J past the table's orders: recovery to order J reads the
    entries of every order 2..J.

    Raises:
        ValueError: naming ``name`` and the largest J the table admits.
    """
    orders = {j for _, j in table.entries}
    for j in range(2, J + 1):
        if j not in orders:
            raise ValueError(
                f"{name} {J} is out of range: the table holds no entries of "
                f"order {j}, so {name} <= {j - 1}"
            )


def _zero_beyond_quadratic(table: InvariantTable) -> bool:
    """True when the table holds entries past order 1 and every one of
    them vanishes next to the order-1 entries."""
    scale = max([abs(v) for (_, j), v in table.entries.items() if j == 1] + [1.0])
    higher = [abs(v) for (_, j), v in table.entries.items() if j >= 2]
    return bool(higher) and all(v <= 1e-13 * scale for v in higher)


def _order_values(
    table: InvariantTable, L: float, data: dict[int, float], j: int, iterates: dict
) -> tuple[dict[int, complex], dict[int, float] | None]:
    """The order-j top parts y_r = entry - remainder of the admissible
    iterates (`_iterate_data`), and for FullPrincipal tables each one's
    scale max(|entry|, |remainder|), the level its rounding is relative
    to.  The remainder is the (r, j) value of an auxiliary domain carrying
    the already-recovered data and zeros at orders 2j-1, 2j; an iterate
    skipped at a symbol pole gets none, as its Hessian is singular.
    TopOnly tables subtract no remainder and get no scales."""
    rows = [r for (r, jj) in table.entries if jj == j and r in iterates]
    if table.normalization == "TopOnly":
        return {r: table.entry(r, j) for r in rows}, None
    auxiliary = recovered_spec(table.symmetry_class, L, data, 2 * j)
    values, scales = {}, {}
    for r in rows:
        entry = table.entry(r, j)
        remainder = invariant_full(auxiliary, r, j)
        values[r] = entry - remainder
        scales[r] = max(abs(entry), abs(remainder))
    return values, scales


# ---------------------------------------------------------------------------
# the induction


def recover(table: InvariantTable, J: int, name: str = "J") -> RecoveryResult:
    """Recover f^(k)(0), k <= 2J, by induction on the order j, with L and
    the Floquet datum a read off the table.

    The base case reads f''(0) off a: (a + 2)/(2L) for the two-arc
    classes, (a - 2) m sin(pi/m)/(4L) for "dihedral-<m>" (a is then the
    circulant diagonal parameter of the m-gon orbit); residuals[1]
    compares the TopOnly j = 1 entries with it, and the FullPrincipal ones
    with 2 A_r, their order-0 diagram sum, which reads L and not a.  Order
    j >= 2 reads the order-j row only, less the remainder of the data so
    far in a FullPrincipal table (`_order_values`).  For "updown" it
    decouples the two graph families and divides the odd one by f'''(0);
    a vanishing cubic stops the induction at j = 3, so J = 2 still returns
    the quartic datum of a doubly symmetric table.  "twoarc-symmetric"
    and "dihedral-<m>" have odd data zero by symmetry and read the even
    datum off one family.

    The job is checked once, before any work, in this order: J >= 1; a
    FullPrincipal table whose remainders at orders <= J would pass the
    graph census or `MAX_FULL_COST` (`invariants.check_full_job`); an
    order 2..J with no entries in the table (`check_orders`); then the
    class.  ``name`` is the caller's name for J, used in the messages only.

    Raises:
        ValueError: a size check above, naming ``name`` or
            ``entries[].r``; a dihedral class whose m is malformed, below 2
            or past `MAX_BOUNCES` (`invariants.dihedral_m`), or whose
            entries reach past `MAX_BOUNCES` bounces.
        ObstructionError("unsupported"): a generic two-arc class (its
            tables are underdetermined) or a non-TopOnly dihedral table.
        ObstructionError("singular-decoupling"): "updown" at a bad
            Floquet parameter or with fewer than two admissible iterates.
        ObstructionError("vanishing-cubic"): "updown" with |f'''(0)|
            below tolerance, so the odd data are not anchored (the
            quintic-sum extension is not implemented), or (f'''(0))^2 < 0.
        ObstructionError("symbol-pole"): a single-family class with every
            iterate of some order at a symbol pole.
    """
    check_size(J, name)
    if table.normalization == "FullPrincipal":
        r_max = max(r for r, _ in table.entries)
        check_full_job(r_max, J, "entries[].r", name, "a FullPrincipal table")
    check_orders(table, J, name)
    cls, L, a = table.symmetry_class, table.length, table.floquet_parameter
    m = dihedral_m(cls, "class")
    if m is None and cls not in ("updown", "twoarc-symmetric"):
        raise ObstructionError(
            "unsupported",
            f"no recovery pipeline for symmetry class {cls!r} "
            "(generic two-arc tables are underdetermined)",
        )
    if m is not None:
        check_bounces(m, max((r for r, _ in table.entries), default=1), "entries[].r")
    if m is None:
        data = {2: recover_f2(a, L)}
    elif table.normalization != "TopOnly":
        raise ObstructionError("unsupported", "dihedral recovery expects a TopOnly table")
    else:
        data = {2: (a - 2.0) * m * math.sin(math.pi / m) / (4.0 * L)}
    iterates, notes = _iterate_data(table, J, a, L, m)

    def coefficients(j: int) -> dict[int, complex]:
        """Single-family coefficient of each iterate's order-j entry."""
        if m is not None:
            return {r: m * r * h[0] ** j for r, h in iterates.items()}
        w1 = contributing_weights(j)[0]
        return {r: -8.0 * r * _i_power(j + 1) * lead * w1 * h11**j
                for r, (h11, _, lead) in iterates.items()}

    residuals: dict[int, float] = {}
    checks, first = [], coefficients(1)
    for r in sorted(iterates.keys() & {r for (r, j) in table.entries if j == 1}):
        if table.normalization == "TopOnly":
            want = first[r] * data[2]
        else:  # the order-0 diagram sum: twice the amplitude at the orbit
            want = 2.0 * iterates[r][2]
        checks.append(abs(table.entry(r, 1) - want) / max(abs(want), 1.0))
    if checks:
        residuals[1] = max(checks)

    if cls == "updown" and J >= 2 and _zero_beyond_quadratic(table):
        data.update((k, 0.0) for k in range(3, 2 * J + 1))
        residuals.update((j, 0.0) for j in range(2, J + 1))
        return RecoveryResult(data, residuals, tuple(notes))

    cancellation: dict[int, float] = {}
    cubic_floor = _CUBIC_TOL
    for j in range(2, J + 1):
        values, scales = _order_values(table, L, data, j, iterates)
        if cls != "updown":
            rows = sorted(values)
            if not rows:
                raise ObstructionError(
                    "symbol-pole",
                    f"every iterate of order {j} hits a symbol pole at a = {a:g}",
                )
            coeffs = coefficients(j)
            matrix = np.array([[coeffs[r]] for r in rows], dtype=complex)
            rhs = np.array([[complex(values[r])] for r in rows])
            sol_c, *_ = np.linalg.lstsq(matrix, rhs[:, 0], rcond=None)
            data[2 * j - 1], data[2 * j] = 0.0, float(sol_c[0].real)
            resid = np.linalg.norm(matrix * data[2 * j] - rhs)
            residuals[j] = float(resid / max(np.linalg.norm(rhs), 1.0))
            continue
        w1, w2, w3 = contributing_weights(j)
        A, B, residuals[j], ratio = _decouple(j, values, scales, iterates, a)
        if ratio is not None:
            cancellation[j] = ratio
        odd_product = B / (2.0 * w3)  # = f'''(0) f^(2j-1)(0)
        if j == 2:
            cubic_floor = _CUBIC_TOL * max(1.0, abs(A / w1)) ** 0.5
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
