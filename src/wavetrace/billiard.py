"""Billiard dynamics in local boundary charts.

The boundary is modeled only near the distinguished orbit: each bounce
point carries a graph chart (a rotated copy of ``y = f(x)``).  This is
enough for the billiard map near the orbit, Newton searches for periodic
orbits as critical points of the chord-length sum, and finite-difference
Poincare (return) maps — the global table is never needed.

Conventions: a state is a chart point plus the *outgoing* tangential
momentum eta = <v, T(x)> with |eta| < 1; the reflection law is encoded by
launching rays with the inward normal component +sqrt(1 - eta^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from wavetrace.domain import BoundaryArc, DomainSpec
from wavetrace.jets import MultiJet, embed_pair, jet_compose_scalar, power_series

__all__ = [
    "Chart",
    "PeriodicOrbit",
    "PoincareData",
    "charts",
    "bounce_sequence",
    "billiard_map",
    "find_orbit",
    "poincare_numeric",
    "snell_residual",
    "chord_jets",
    "length_jet",
    "arclength",
    "x_from_arclength",
]

_NEWTON_TOL = 1e-13
_NEWTON_MAX = 60


@dataclass(frozen=True)
class Chart:
    """Local boundary piece: the rotated graph Rot(angle) @ (x, f(x)).

    ``inward`` is +1 or -1 and orients the inward unit normal as
    inward * Rot(angle) @ (-f'(x), 1) / sqrt(1 + f'(x)^2).
    """

    arc: BoundaryArc
    angle: float
    inward: float

    def _rot(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    def point(self, x: float) -> np.ndarray:
        return self._rot() @ np.array([x, self.arc.value(x)])

    def dpoint(self, x: float) -> np.ndarray:
        return self._rot() @ np.array([1.0, self.arc.deriv_value(x, 1)])

    def d2point(self, x: float) -> np.ndarray:
        return self._rot() @ np.array([0.0, self.arc.deriv_value(x, 2)])

    def tangent(self, x: float) -> np.ndarray:
        d = self.dpoint(x)
        return d / np.linalg.norm(d)

    def normal(self, x: float) -> np.ndarray:
        fp = self.arc.deriv_value(x, 1)
        n = self._rot() @ np.array([-fp, 1.0])
        return self.inward * n / np.linalg.norm(n)


def charts(spec: DomainSpec) -> list[Chart]:
    """Charts of a spec, indexed by bounce site.

    twoarc/updown: [top, bottom]; dihedral: m rotated copies of f.
    """
    if spec.kind == "dihedral":
        m = spec.m
        assert m is not None
        return [Chart(spec.f, -2.0 * math.pi * p / m, -1.0) for p in range(m)]
    return [Chart(spec.upper, 0.0, -1.0), Chart(spec.lower, 0.0, +1.0)]


def bounce_sequence(spec: DomainSpec, r: int) -> tuple[int, ...]:
    """Chart index at each bounce of the r-fold distinguished orbit."""
    if spec.kind == "dihedral":
        assert spec.m is not None
        return tuple(p % spec.m for p in range(spec.m * r))
    return tuple(p % 2 for p in range(2 * r))


@dataclass(frozen=True)
class PeriodicOrbit:
    """Critical point of the chord-length sum.

    Attributes:
        points: chart coordinates x_p at each bounce.
        word: chart index at each bounce (0=top/1=bottom for two-arc
            tables; the rotation word for dihedral ones).
        length: total Euclidean length of the closed polygon.
        r: iterate count.
        residual: final gradient sup-norm of the Newton search.
    """

    points: tuple[float, ...]
    word: tuple[int, ...]
    length: float
    r: int
    residual: float

    @property
    def signs(self) -> tuple[int, ...]:
        """Orientation word: +1 at even slots (top), -1 at odd ones."""
        return tuple(1 if w == 0 else -1 for w in self.word)

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "word": list(self.word),
            "length": self.length,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class PoincareData:
    """Linearized return map in (arclength, tangential momentum) coordinates."""

    matrix: np.ndarray
    eigenvalues: tuple[complex, complex]
    trace: float

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


# ---------------------------------------------------------------------------
# the billiard map


def billiard_map(
    spec: DomainSpec, q: tuple[int, float], eta: float
) -> tuple[tuple[int, float], float]:
    """One reflection step of the billiard map in chart coordinates.

    Args:
        spec: the table.
        q: (chart index, chart coordinate) of the departure point.
        eta: outgoing tangential momentum, |eta| < 1.

    Returns:
        ((chart index, chart coordinate), eta) after the next reflection;
        eta is again the outgoing tangential momentum (the tangential
        component is preserved by the reflection law).

    Raises:
        ValueError: no admissible chord (the ray leaves the chart cover,
            |x'| > half_width, or Newton fails).
    """
    chs = charts(spec)
    i, x = q
    if not -1.0 < eta < 1.0:
        raise ValueError("tangential momentum must satisfy |eta| < 1")
    p0 = chs[i].point(x)
    v = eta * chs[i].tangent(x) + math.sqrt(1.0 - eta * eta) * chs[i].normal(x)

    if spec.kind == "dihedral":
        assert spec.m is not None
        candidates = [(i + 1) % spec.m, (i - 1) % spec.m]
        if spec.m == 2:
            candidates = [1 - i]
    else:
        candidates = [1 - i]

    best: tuple[float, int, float] | None = None
    exited = False
    for j in candidates:
        xj = _ray_chart_intersection(chs[j], p0, v)
        if xj is None:
            continue
        t = float((chs[j].point(xj) - p0) @ v)
        arriving_inward = float(v @ chs[j].normal(xj)) < 0.0
        if t > 1e-9 and arriving_inward:
            if abs(xj) > chs[j].arc.half_width:
                exited = True
                continue
            if best is None or t < best[0]:
                best = (t, j, xj)
    if best is None:
        detail = (
            "chord exits the chart cover (|x'| > half_width)"
            if exited
            else "ray leaves the modeled boundary charts"
        )
        raise ValueError(
            f"no chord from chart {i}, x = {x:.6g}, eta = {eta:.6g}: {detail}"
        )
    _, j, xj = best
    eta_new = float(v @ chs[j].tangent(xj))
    return (j, float(xj)), eta_new


def _ray_chart_intersection(chart: Chart, p0: np.ndarray, v: np.ndarray) -> float | None:
    """Newton-solve cross(chart(x) - p0, v) = 0; None on failure."""
    x = 0.0
    for _ in range(_NEWTON_MAX):
        d = chart.point(x) - p0
        g = d[0] * v[1] - d[1] * v[0]
        dp = chart.dpoint(x)
        gp = dp[0] * v[1] - dp[1] * v[0]
        if gp == 0.0:
            return None
        step = g / gp
        x -= step
        if abs(step) <= 1e-14 * max(1.0, abs(x)):
            return x
    return None


# ---------------------------------------------------------------------------
# length functional and orbit search


def _chord_blocks(
    cha: Chart, chb: Chart, xa: float, xb: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """(length, gradient, Hessian) of |chb(xb) - cha(xa)| in (xa, xb)."""
    pa, pb = cha.point(xa), chb.point(xb)
    da, db = cha.dpoint(xa), chb.dpoint(xb)
    d2a, d2b = cha.d2point(xa), chb.d2point(xb)
    diff = pb - pa
    g = float(np.linalg.norm(diff))
    e = diff / g
    grad = np.array([-(e @ da), e @ db])
    h_aa = ((da @ da) - (e @ da) ** 2) / g - float(e @ d2a)
    h_bb = ((db @ db) - (e @ db) ** 2) / g + float(e @ d2b)
    h_ab = -((da @ db) - (e @ da) * (e @ db)) / g
    return g, grad, np.array([[h_aa, h_ab], [h_ab, h_bb]])


def _assemble(spec: DomainSpec, word: tuple[int, ...], x: np.ndarray):
    """(length, gradient, Hessian) of the cyclic chord-length sum along the
    bounce word, at chart coordinates x."""
    chs = charts(spec)
    n = len(word)
    total = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for p in range(n):
        q = (p + 1) % n
        g, gr, hb = _chord_blocks(chs[word[p]], chs[word[q]], x[p], x[q])
        total += g
        grad[[p, q]] += gr
        hess[np.ix_([p, q], [p, q])] += hb
    return total, grad, hess


def find_orbit(spec: DomainSpec, r: int, initial_guess) -> PeriodicOrbit:
    """Newton search for a critical point of the chord-length sum.

    Args:
        spec: the table.
        r: iterate count (2r bounces, or m*r for dihedral tables).
        initial_guess: starting chart coordinates, length 2r (or m*r).

    Returns:
        PeriodicOrbit with gradient residual <= 1e-12.

    Raises:
        ValueError: wrong guess length, singular Hessian, or
            non-convergence.
    """
    word = bounce_sequence(spec, r)
    x = np.asarray(initial_guess, dtype=float).copy()
    if x.shape != (len(word),):
        raise ValueError(f"initial_guess must have length {len(word)}")
    residual = math.inf
    for _ in range(_NEWTON_MAX):
        total, grad, hess = _assemble(spec, word, x)
        residual = float(np.max(np.abs(grad)))
        if residual <= 1e-12:
            return PeriodicOrbit(
                points=tuple(float(v) for v in x),
                word=word,
                length=total,
                r=r,
                residual=residual,
            )
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular length Hessian during orbit search: {exc}")
        x -= step
    raise ValueError(
        f"orbit search did not converge in {_NEWTON_MAX} steps "
        f"(last residual {residual:.3g})"
    )


def snell_residual(spec: DomainSpec, orbit: PeriodicOrbit) -> float:
    """max_p |<e_in, T> - <e_out, T>| over the orbit vertices.

    Zero exactly when every vertex satisfies the equal-angles law.
    """
    chs = charts(spec)
    n = len(orbit.word)
    pts = [chs[orbit.word[p]].point(orbit.points[p]) for p in range(n)]
    worst = 0.0
    for p in range(n):
        prv, nxt = pts[(p - 1) % n], pts[(p + 1) % n]
        e_in = pts[p] - prv
        e_in = e_in / np.linalg.norm(e_in)
        e_out = nxt - pts[p]
        e_out = e_out / np.linalg.norm(e_out)
        tan = chs[orbit.word[p]].tangent(orbit.points[p])
        worst = max(worst, abs(float((e_in - e_out) @ tan)))
    return worst


# ---------------------------------------------------------------------------
# arclength coordinates and the numerical Poincare map


def arclength(chart: Chart, x: float) -> float:
    """Signed arclength along the chart from 0 to x."""
    from scipy.integrate import quad

    speed = lambda u: math.hypot(1.0, chart.arc.deriv_value(u, 1))
    val, _ = quad(speed, 0.0, x, limit=200)
    return float(val)


def x_from_arclength(chart: Chart, s: float) -> float:
    """Invert arclength by Newton (monotone; speed >= 1)."""
    x = s
    for _ in range(_NEWTON_MAX):
        g = arclength(chart, x) - s
        x -= g / math.hypot(1.0, chart.arc.deriv_value(x, 1))
        if abs(g) <= 1e-14 * max(1.0, abs(s)):
            return x
    raise ValueError("arclength inversion did not converge")


def poincare_numeric(spec: DomainSpec, orbit: PeriodicOrbit) -> PoincareData:
    """Linearized return map around the orbit, by central differences.

    The full cycle (all bounces of the orbit) is differentiated in
    (arclength, tangential momentum) coordinates at the first bounce
    point, with one Richardson extrapolation step; the symplectic
    determinant then holds to ~1e-9.
    """
    chs = charts(spec)
    n = len(orbit.word)
    i0 = orbit.word[0]
    x0 = orbit.points[0]
    pts = [chs[orbit.word[p]].point(orbit.points[p]) for p in range(n)]
    e_out = pts[1 % n] - pts[0]
    e_out = e_out / np.linalg.norm(e_out)
    eta0 = float(e_out @ chs[i0].tangent(x0))
    s0 = arclength(chs[i0], x0)

    def cycle(state: np.ndarray) -> np.ndarray:
        q = (i0, x_from_arclength(chs[i0], state[0]))
        eta = float(state[1])
        for _ in range(n):
            q, eta = billiard_map(spec, q, eta)
        if q[0] != i0:
            raise ValueError("return map did not come back to the starting chart")
        return np.array([arclength(chs[q[0]], q[1]), eta])

    center = np.array([s0, eta0])
    scale = max(spec.L, 1.0)

    def jac(h: float) -> np.ndarray:
        cols = []
        for k in range(2):
            delta = np.zeros(2)
            delta[k] = h
            cols.append((cycle(center + delta) - cycle(center - delta)) / (2.0 * h))
        return np.column_stack(cols)

    h = 1e-5 * scale
    mat = (4.0 * jac(h / 2.0) - jac(h)) / 3.0
    eig = np.linalg.eigvals(mat)
    return PoincareData(
        matrix=mat,
        eigenvalues=(complex(eig[0]), complex(eig[1])),
        trace=float(np.trace(mat)),
    )


# ---------------------------------------------------------------------------
# chord-length sums as jets


def chord_jets(
    spec: DomainSpec, r: int, degree: int
) -> tuple[MultiJet, list[tuple[MultiJet, ...]], list[tuple[int, int, int]]]:
    """The cyclic chord-length sum of the r-fold orbit, and the jets of the
    chart pair of each chord.

    Chord p joins bounce p to bounce q = (p + 1) mod n and depends on the
    chart coordinates x_p, x_q only.  Its jets are those of its chart pair
    (`_chord_pair`), looked up once per distinct pair and placed into the
    n-variable basis.  The wrap-around chord p = n - 1 joins x_{n-1} to
    x_0; at n = 2 it joins the same two variables as chord 0, in the other
    order.

    Returns:
        (length, pairs, chords): the jet in all n variables of the
        chord-length sum, the `_chord_pair` jets of each distinct
        ``(chart_p, chart_q)`` pair, and one ``(p, q, k)`` per chord in
        bounce order, ``pairs[k]`` being the jets of its chart pair.
    """
    word = bounce_sequence(spec, r)
    n = len(word)
    index: dict[tuple[int, int], int] = {}
    chords = []
    for p in range(n):
        q = (p + 1) % n
        chords.append((p, q, index.setdefault((word[p], word[q]), len(index))))
    chs = charts(spec)
    pairs = [_chord_pair(chs[a], chs[b], degree) for a, b in index]
    length = MultiJet.zero(n, degree)
    for p, q, k in chords:
        length = length + embed_pair(pairs[k][2], p, q, n)
    return length, pairs, chords


# Entries of `_chord_pair`, one per chart pair and degree: a two-arc spec has
# two pairs (top to bottom and back), a dihedral spec m, and full-mode
# recovery reads one new spec per order.  Bounded, because a long-running
# process meets new specs without end.
_PAIR_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_PAIR_CACHE_SIZE)
def _chord_pair(
    cha: Chart, chb: Chart, degree: int
) -> tuple[MultiJet, MultiJet, MultiJet, MultiJet, MultiJet]:
    """Jets of the chord from chart ``cha`` to chart ``chb``, in
    (y_0, y_1) = (x_a, x_b), taken at 0 to total degree ``degree``:

    * ``chord_sq`` = |P_b - P_a|^2, with P the chart point;
    * ``cross`` = T_a x (P_b - P_a), with T_a = dP_a/dx_a the chart tangent;
      on the two-arc charts it is (x_a - x_b) f'_a(x_a) - (f_a(x_a) - f_b(x_b));
    * ``root`` = sqrt(chord_sq), the chord length;
    * ``inverse_power`` = chord_sq^(-3/4), the chord length to the power
      -3/2;
    * ``factor`` = cross * inverse_power, the amplitude's chord factor
      (`invariants.build_principal`).

    The two powers are one `jet_compose_scalar` of the complex series
    whose real and imaginary parts are theirs: chord_sq is real, so each
    part of every product is the sum of the same terms, in the same order,
    as in that power's own `jet_power`, and both are bit-identical to it.

    Every chord of every iterate joins one of a spec's few chart pairs, so
    the jets are cached per pair and degree and shared; their coefficient
    arrays are read-only.

    Returns:
        (chord_sq, cross, root, inverse_power, factor).
    """
    c, s = math.cos(cha.angle), math.sin(cha.angle)
    xa, ya = _point_jet(cha, 0, degree)
    xb, yb = _point_jet(chb, 1, degree)
    dx, dy = xb - xa, yb - ya
    taylor = cha.arc.taylor
    slope = MultiJet.from_univariate(
        [k * taylor[k] for k in range(1, len(taylor))], 0, 2, degree
    )
    chord_sq = dx * dx + dy * dy
    cross = (dy * c - dx * s) - (dx * c + dy * s) * slope
    series = power_series(0.5, chord_sq.value, degree + 1).astype(complex)
    series.imag = power_series(-0.75, chord_sq.value, degree + 1)
    powers = jet_compose_scalar(series, chord_sq).coeffs
    root, inverse_power = (MultiJet(2, degree, part.copy()) for part in (powers.real, powers.imag))
    jets = (chord_sq, cross, root, inverse_power, cross * inverse_power)
    for jet in jets:
        jet.coeffs.flags.writeable = False
    return jets


def _point_jet(chart: Chart, var: int, degree: int) -> tuple[MultiJet, MultiJet]:
    """Both components of the chart point as 2-variable jets in y_var."""
    c, s = math.cos(chart.angle), math.sin(chart.angle)
    x = MultiJet.variable(var, 2, degree)
    f = MultiJet.from_univariate(chart.arc.taylor, var, 2, degree)
    return x * c - f * s, x * s + f * c


def length_jet(spec: DomainSpec, r: int, degree: int) -> MultiJet:
    """Jet of the cyclic chord-length sum at the distinguished orbit.

    Variables are the chart coordinates (x_0, ..., x_{n-1}) in bounce
    order; the jet is taken at x = 0 to total degree ``degree``.  Each
    chord is built as a 2-variable jet and placed into the n-variable
    basis (`chord_jets`).  Arcs must carry Taylor data to the requested
    degree (coefficients beyond what an arc stores are treated as zero by
    the truncation).
    """
    return chord_jets(spec, r, degree)[0]
