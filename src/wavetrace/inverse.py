"""Boundary recovery from invariant tables.

The forward map tabulates orbit invariants; `recover` runs the induction
the other way, from a table and its orbit length L and Floquet datum.  The
base case reads f''(0) off the Floquet datum; each later order reads its
data off its table row by one solve for every class (`_decouple`): it
separates two graph families in the mirror-symmetric class and reads one
in the doubly symmetric and dihedral classes, with the same rank test,
FullPrincipal row weights and cancellation report in each.

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
from .hessian import check_rank, dihedral_inverse_entry, stacked_parity_sums
from .invariants import (
    InvariantTable,
    check_full_job,
    check_size,
    contributing_weights,
    dihedral_m,
    invariant_full,
    principal_leading_value,
)

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
            of that order's solve, for every order 2..J of a FullPrincipal
            table, whatever its class (empty for TopOnly tables).
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
        (diagonal, _, s3), poles = stacked_parity_sums(L, a, a, rs, s1=False)
        admitted = [r for r in rs if r not in poles]
        # h11 = d[0] and F3 = S3[0, 0] + S3[0, 1] of every iterate at once
        h11s = diagonal[:, 0].tolist()
        f3s = (s3[:, 0, 0] + s3[:, 0, 1]).tolist()
        data = {
            r: (h11, f3, principal_leading_value(r, L))
            for r, h11, f3 in zip(admitted, h11s, f3s)
        }
    else:
        data, poles = {}, []
        for r in rs:
            try:
                data[r] = (dihedral_inverse_entry(m, r, a, 2.0 * L / m, 1, 1),)
            except ObstructionError:
                poles.append(r)
    return data, [f"iterate r = {r} skipped: symbol pole at a = {a:g}" for r in poles]


def _row_prefactors(j: int, iterates: dict, m: int | None) -> dict[int, complex]:
    """r -> the order-j row factor of iterate r (`_iterate_data`) without
    its (h11)^(j-2): 8 r i^(j+1) A_r for the two-arc classes, with A_r the
    leading principal amplitude, and m r for the m-gon orbit."""
    if m is not None:
        return {r: m * r for r in iterates}
    phase = _i_power(j + 1)
    return {r: 8.0 * r * phase * lead for r, (_, _, lead) in iterates.items()}


def _decouple(
    j: int,
    values: dict[int, complex],
    scales: dict[int, float] | None,
    iterates: dict,
    a: float,
    families: int,
    m: int | None = None,
) -> tuple[float, float, float, float | None]:
    """(A, B, residual, cancellation) of the order-j row solve.

    The raw entry at (r, j) is divided by its row factor, `_row_prefactors`
    times (h11)^(j-2), leaving the real linear form

        (h11_2r)^2 * A - F3(r, a) * B = y_r

    in least squares over the admissible iterates (`_iterate_data`).  Two
    families (the mirror-symmetric class) separate the two graph-family
    sums, A = -w1 f^(2j) + 2 w2 L/(a+2) f''' f^(2j-1) and
    B = 2 w3 f''' f^(2j-1), in the convex-representative data.  One family
    drops the F3 column and returns B = 0, with A = -w1 f^(2j) for the
    two-arc classes and A = f^(2j) for the m-gon orbit (``m``): the doubly
    symmetric and dihedral classes, whose odd data vanish by symmetry, and
    a mirror-symmetric table whose rows past order 1 vanish.  An iterate
    whose row factor is zero (h11 = 0 at j >= 3) reads nothing of order j
    and is left out.

    With ``scales`` (FullPrincipal tables, see `_order_values`) each row
    is weighted by |row factor| / scale, the inverse of its rounding level:
    where entry and remainder nearly cancel, y_r keeps the rounding of the
    larger of the two (weighted least squares; Bjorck, *Numerical Methods
    for Least Squares Problems*, 1996, ch. 4).  The cancellation returned
    is the largest scale / |entry - remainder| over the rows, None without
    scales.  TopOnly rows keep unit weight.  The rank test and the
    residual read the unweighted rows.

    Raises:
        ObstructionError("symbol-pole"): no admitted row, every iterate
            with an order-j entry sitting at a symbol pole.
        ObstructionError("singular-decoupling"): fewer rows than families,
            or rank-deficient rows (`hessian.check_rank`) — the hallmark of
            the finitely many bad Floquet parameters.
    """
    rows = sorted(iterates.keys() & values)
    if not rows:
        raise ObstructionError(
            "symbol-pole", f"every iterate of order {j} hits a symbol pole at a = {a:g}"
        )
    prefactors = _row_prefactors(j, iterates, m)
    coeffs, rhs, weights, ratios = [], [], [], []
    for r in rows:
        h11 = iterates[r][0]
        divisor = prefactors[r] * h11 ** (j - 2)
        if divisor == 0:
            continue
        coeffs.append((h11**2, -iterates[r][1]) if families == 2 else (h11**2,))
        rhs.append(complex(values[r]) / divisor)
        if scales is not None:
            weights.append(abs(divisor) / scales[r])
            ratios.append(scales[r] / abs(values[r]) if values[r] else math.inf)
    if len(coeffs) < families:
        raise ObstructionError(
            "singular-decoupling",
            f"order {j} has {len(coeffs)} rows with a nonzero factor at a = {a:g}, "
            f"fewer than its {families} families",
        )
    matrix = np.array(coeffs)
    check_rank(matrix, f"the order-{j} rows at a = {a:g}")
    rhs = np.array(rhs)
    system, target, cancellation = matrix, rhs, None
    if scales is not None:
        w = np.array(weights)
        system, target, cancellation = matrix * w[:, None], rhs * w, max(ratios)
    sol_c, *_ = np.linalg.lstsq(system.astype(complex), target, rcond=None)
    sol = sol_c.real
    resid = float(
        np.linalg.norm(matrix @ sol - rhs) / max(np.linalg.norm(rhs), 1.0)
    )
    B = float(sol[1]) if families == 2 else 0.0
    return float(sol[0]), B, resid, cancellation


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
    them vanishes next to the order-1 entries: a mirror-symmetric table
    then reads one family, as its odd family has nothing to anchor."""
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
    rows = [r for r in iterates if (r, j) in table.entries]
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
    far in a FullPrincipal table (`_order_values`), by one solve for
    every class (`_decouple`).  For "updown" it decouples the two graph
    families and divides the odd one by f'''(0); a vanishing cubic stops
    the induction at j = 3, so J = 2 still returns the quartic datum of a
    doubly symmetric table.  "twoarc-symmetric" and "dihedral-<m>" have
    odd data zero by symmetry and read the even datum off one family, as
    does an "updown" table whose rows past order 1 all vanish.

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
        ObstructionError("symbol-pole"): an order with no admitted row,
            every iterate of that order sitting at a symbol pole.
        ObstructionError("singular-decoupling"): an order with fewer rows
            than families or rank-deficient rows, as at a bad Floquet
            parameter or where h11 vanishes.
        ObstructionError("vanishing-cubic"): "updown" with |f'''(0)|
            below tolerance, so the odd data are not anchored (the
            quintic-sum extension is not implemented), or (f'''(0))^2 < 0.
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
    families = 2 if cls == "updown" and not _zero_beyond_quadratic(table) else 1

    # a TopOnly order-1 entry is its row factor times (h11)^2 A, with one
    # family A = -w1 f''(0), or f''(0) on the m-gon orbit; a FullPrincipal
    # one is the order-0 diagram sum, twice the amplitude at the orbit
    even = -contributing_weights(1)[0] if m is None else 1.0
    first = _row_prefactors(1, iterates, m)
    wants = {
        r: first[r] * even * h[0] * data[2] if table.normalization == "TopOnly" else 2.0 * h[2]
        for r, h in iterates.items() if (r, 1) in table.entries
    }
    checks = [abs(table.entry(r, 1) - want) / max(abs(want), 1.0) for r, want in wants.items()]
    residuals = {1: max(checks)} if checks else {}

    cancellation: dict[int, float] = {}
    cubic_floor = _CUBIC_TOL
    for j in range(2, J + 1):
        values, scales = _order_values(table, L, data, j, iterates)
        A, B, residuals[j], ratio = _decouple(j, values, scales, iterates, a, families, m)
        if ratio is not None:
            cancellation[j] = ratio
        w1, w2, w3 = contributing_weights(j)
        if families == 1:  # odd data zero by symmetry, or a flat table
            data[2 * j - 1], data[2 * j] = 0.0, -A / w1 if m is None else A
            continue
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
